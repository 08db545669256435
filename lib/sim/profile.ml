(* Evaluation-cost observability for the engine: how much combinational
   work each cycle takes, where it goes, and how long it lasts. *)

type t = {
  n_nodes : int;
  per_node : int array;
      (* cumulative eval calls per dense node index: the only eval
         counter, so the total is their sum *)
  mutable cycles : int;
  mutable settle_ns : int;
  mutable compile_seconds : float;
      (* engine-construction cost (schedule build, arena compile);
         survives [reset] — compilation happened once, before any
         window *)
  mutable hist : int array;
      (* [hist.(p)]: cycles that took [p] settle passes; grown (by
         doubling) the first time a cycle takes more passes than it
         has rows *)
  mutable max_passes : int;
  mutable last_passes : int;
}

let create ~n_nodes =
  { n_nodes;
    per_node = Array.make (max n_nodes 1) 0;
    cycles = 0;
    settle_ns = 0;
    compile_seconds = 0.0;
    hist = Array.make 8 0;
    max_passes = 0;
    last_passes = 0 }

let reset t =
  Array.fill t.per_node 0 (Array.length t.per_node) 0;
  t.cycles <- 0;
  t.settle_ns <- 0;
  Array.fill t.hist 0 (Array.length t.hist) 0;
  t.max_passes <- 0;
  t.last_passes <- 0

let note_eval t i = t.per_node.(i) <- t.per_node.(i) + 1

let per_node_array t = t.per_node

let record_cycle t ~passes ~ns =
  t.cycles <- t.cycles + 1;
  t.settle_ns <- t.settle_ns + ns;
  t.max_passes <- max t.max_passes passes;
  t.last_passes <- passes;
  if passes >= Array.length t.hist then begin
    let h = Array.make (max (passes + 1) (2 * Array.length t.hist)) 0 in
    Array.blit t.hist 0 h 0 (Array.length t.hist);
    t.hist <- h
  end;
  t.hist.(passes) <- t.hist.(passes) + 1

let set_compile_seconds t s = t.compile_seconds <- s

let cycles t = t.cycles

let evals t = Array.fold_left ( + ) 0 t.per_node

let settle_seconds t = float_of_int t.settle_ns *. 1e-9

let compile_seconds t = t.compile_seconds

let evals_per_cycle t =
  if t.cycles = 0 then 0.0
  else float_of_int (evals t) /. float_of_int t.cycles

let max_passes t = t.max_passes

let last_passes t = t.last_passes


(* Settle-pass histogram, ascending by pass count. *)
let pass_histogram t =
  let rec rows p acc =
    if p < 0 then acc
    else rows (p - 1) (if t.hist.(p) = 0 then acc else (p, t.hist.(p)) :: acc)
  in
  rows (Array.length t.hist - 1) []

(* The [n] nodes with the most eval calls, descending. *)
let top_nodes t n =
  Array.to_list (Array.mapi (fun i c -> (i, c)) t.per_node)
  |> List.filter (fun (_, c) -> c > 0)
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < n)

let pp ?(name = string_of_int) ppf t =
  Fmt.pf ppf
    "@[<v>%d cycles, %d evaluations (%.2f evals/cycle, %d nodes)@,\
     compile phase %.3f ms, settle phase %.3f ms (%.2f us/cycle)@,\
     settle passes per cycle (max %d):"
    t.cycles (evals t) (evals_per_cycle t) t.n_nodes
    (t.compile_seconds *. 1e3)
    (settle_seconds t *. 1e3)
    (if t.cycles = 0 then 0.0
     else settle_seconds t *. 1e6 /. float_of_int t.cycles)
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
