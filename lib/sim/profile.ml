(* Evaluation-cost observability for the engine: how much combinational
   work each cycle takes, where it goes, and how long it lasts. *)

type t = {
  n_nodes : int;
  per_node : int array;  (* cumulative eval calls per dense node index *)
  mutable cycles : int;
  mutable evals : int;
  mutable settle_seconds : float;
  mutable compile_seconds : float;
      (* engine-construction cost (schedule build, arena compile);
         survives [reset] — compilation happened once, before any
         window *)
  hist : (int, int) Hashtbl.t;  (* settle passes -> number of cycles *)
  mutable max_passes : int;
  mutable last_passes : int;
}

let create ~n_nodes =
  { n_nodes;
    per_node = Array.make (max n_nodes 1) 0;
    cycles = 0;
    evals = 0;
    settle_seconds = 0.0;
    compile_seconds = 0.0;
    hist = Hashtbl.create 8;
    max_passes = 0;
    last_passes = 0 }

let reset t =
  Array.fill t.per_node 0 (Array.length t.per_node) 0;
  t.cycles <- 0;
  t.evals <- 0;
  t.settle_seconds <- 0.0;
  Hashtbl.reset t.hist;
  t.max_passes <- 0;
  t.last_passes <- 0

let note_eval t i =
  t.per_node.(i) <- t.per_node.(i) + 1;
  t.evals <- t.evals + 1

(* Batched accounting for the flat-arena settle loop: it bumps the
   per-node counters in place and folds the eval total in once per
   settle, keeping [evals] = sum of [per_node] at every observation
   point outside the loop. *)
let per_node_array t = t.per_node

let add_evals t n = t.evals <- t.evals + n

let record_cycle t ~passes ~seconds =
  t.cycles <- t.cycles + 1;
  t.settle_seconds <- t.settle_seconds +. seconds;
  t.max_passes <- max t.max_passes passes;
  t.last_passes <- passes;
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.hist passes) in
  Hashtbl.replace t.hist passes (prev + 1)

let set_compile_seconds t s = t.compile_seconds <- s

let cycles t = t.cycles

let evals t = t.evals

let settle_seconds t = t.settle_seconds

let compile_seconds t = t.compile_seconds

let evals_per_cycle t =
  if t.cycles = 0 then 0.0
  else float_of_int t.evals /. float_of_int t.cycles

let max_passes t = t.max_passes

let last_passes t = t.last_passes


(* Settle-pass histogram, ascending by pass count. *)
let pass_histogram t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hist []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The [n] nodes with the most eval calls, descending. *)
let top_nodes t n =
  Array.to_list (Array.mapi (fun i c -> (i, c)) t.per_node)
  |> List.filter (fun (_, c) -> c > 0)
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < n)

let pp ?(name = string_of_int) ppf t =
  Fmt.pf ppf
    "@[<v>%d cycles, %d node evaluations (%.2f evals/cycle, %d nodes)@,\
     compile phase %.3f ms, settle phase %.3f ms (%.2f us/cycle)@,\
     settle passes per cycle (max %d):"
    t.cycles t.evals (evals_per_cycle t) t.n_nodes
    (t.compile_seconds *. 1e3)
    (t.settle_seconds *. 1e3)
    (if t.cycles = 0 then 0.0
     else t.settle_seconds *. 1e6 /. float_of_int t.cycles)
    t.max_passes;
  List.iter
    (fun (p, n) -> Fmt.pf ppf "@,  %3d pass%s: %d cycles" p
        (if p = 1 then " " else "es") n)
    (pass_histogram t);
  Fmt.pf ppf "@,busiest nodes:";
  List.iter
    (fun (i, c) -> Fmt.pf ppf "@,  %-24s %d evals" (name i) c)
    (top_nodes t 5);
  Fmt.pf ppf "@]"
