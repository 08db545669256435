(* In-memory span ledger for traced runs.  Spans are taken from outside,
   around the benchmark's calls into the library; nothing is written
   until [write] at exit, so the measured loop only pays a list cons per
   span. *)

type span = {
  id : int;
  parent : int;  (** 0 for roots *)
  op : int;  (** op index, -1 outside the measured ops *)
  name : string;
  start_ns : int64;
  end_ns : int64;
  attrs : (string * float) list;  (** counts taken at the same boundary *)
}

type t = { mutable rev : span list; mutable next : int }

let create () = { rev = []; next = 1 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let add t ?id ?(parent = 0) ?(op = -1) ?(attrs = []) name start_ns end_ns =
  let id = match id with Some id -> id | None -> fresh t in
  t.rev <- { id; parent; op; name; start_ns; end_ns; attrs } :: t.rev;
  id

let seconds s = Int64.to_float (Int64.sub s.end_ns s.start_ns) *. 1e-9

let named t name = List.filter (fun s -> String.equal s.name name) t.rev

let attr s key = Option.value ~default:0.0 (List.assoc_opt key s.attrs)

(* Sum of [f] over the spans called [name]. *)
let sum t name f = List.fold_left (fun a s -> a +. f s) 0.0 (named t name)

let count t name = List.length (named t name)

let write t ~path ~header =
  let oc = open_out path in
  output_string oc header;
  output_char oc '\n';
  let base =
    List.fold_left (fun a s -> if Int64.compare s.start_ns a < 0 then s.start_ns else a)
      Int64.max_int t.rev
  in
  List.iter
    (fun s ->
       Printf.fprintf oc
         "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld"
         s.id s.parent s.op s.name (Int64.sub s.start_ns base)
         (Int64.sub s.end_ns base);
       if s.attrs <> [] then begin
         output_string oc ",\"attrs\":{";
         List.iteri
           (fun i (k, v) ->
              Printf.fprintf oc "%s%S:%.17g" (if i = 0 then "" else ",") k v)
           s.attrs;
         output_char oc '}'
       end;
       output_string oc "}\n")
    (List.rev t.rev);
  close_out oc
