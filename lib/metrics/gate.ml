type diff = {
  d_path : string;
  d_reason : string;
}

let wall_clock_key path =
  let last =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  let suffixed suf =
    let n = String.length suf in
    String.length last > n
    && String.equal (String.sub last (String.length last - n) n) suf
  in
  String.equal last "settle_us_per_cycle"
  (* Span-ledger coverage (bench E10): a wall-clock ratio; the bench
     gates its >= 0.95 floor via the spans_account_ok bool instead. *)
  || String.equal last "spans_account_ratio"
  || suffixed "_seconds"
  (* Derived rates and ratios are as machine-dependent as the raw
     timings they come from (bench E9). *)
  || suffixed "_per_second"
  || suffixed "_speedup"
  (* Scheduling-overhead ratios (bench E10) are wall-clock-derived
     too: utilization varies with load, overhead with clock
     resolution. *)
  || suffixed "_utilization"
  || suffixed "_overhead"
  (* Compile-scaling allocation (bench E13): minor words depend on the
     OCaml version's stdlib as well as on the code; the bench gates
     their 4096/256-channel ratio via the words_ratio_ok bool instead. *)
  || suffixed "_words_per_channel"
  || String.equal last "words_per_channel_ratio"

(* Leaves of a record, as [path -> value] in document order.  Array
   elements are indexed ([points[2].spec_throughput]) so a reordering
   or a change of sweep length shows up as missing/unexpected paths
   rather than being silently paired up wrong. *)
let flatten j =
  let acc = ref [] in
  let rec go path j =
    match (j : Json.t) with
    | Json.Obj fields ->
      List.iter
        (fun (k, v) ->
           go (if String.equal path "" then k else path ^ "." ^ k) v)
        fields
    | Json.List items ->
      List.iteri (fun i v -> go (Fmt.str "%s[%d]" path i) v) items
    | leaf -> acc := (path, leaf) :: !acc
  in
  go "" j;
  List.rev !acc

let leaf_text = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> Fmt.str "%.6g" f
  | Json.Str s -> Fmt.str "%S" s
  | Json.List _ | Json.Obj _ -> "<composite>"

let compare_values ~rel_tol path baseline current =
  let mismatch reason = Some { d_path = path; d_reason = reason } in
  match (baseline : Json.t), (current : Json.t) with
  (* Two ints compare exactly: the simulation is deterministic, and a
     count that moved by 1 is a real behaviour change. *)
  | Json.Int b, Json.Int c ->
    if b = c then None
    else
      mismatch (Fmt.str "baseline %d, current %d (delta %+d)" b c (c - b))
  | (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _) ->
    (* At least one side is a float (integral floats round-trip through
       JSON as ints, so mixed pairs are float fields too). *)
    let b = Option.get (Json.to_float baseline) in
    let c = Option.get (Json.to_float current) in
    let scale = Float.max 1.0 (Float.max (Float.abs b) (Float.abs c)) in
    if Float.abs (c -. b) <= rel_tol *. scale then None
    else
      mismatch
        (Fmt.str "baseline %g, current %g (delta %+g, tolerance %g)" b c
           (c -. b) (rel_tol *. scale))
  | Json.Bool b, Json.Bool c ->
    if Bool.equal b c then None
    else mismatch (Fmt.str "baseline %b, current %b" b c)
  | Json.Str b, Json.Str c ->
    if String.equal b c then None
    else mismatch (Fmt.str "baseline %S, current %S" b c)
  | Json.Null, Json.Null -> None
  | b, c ->
    mismatch
      (Fmt.str "baseline %s, current %s (kind changed)" (leaf_text b)
         (leaf_text c))

let compare ?(rel_tol = 1e-4) ?(skip = wall_clock_key) ~baseline ~current
    () =
  let b = flatten baseline in
  let c = flatten current in
  let current_tbl = Hashtbl.create (List.length c) in
  List.iter (fun (p, v) -> Hashtbl.replace current_tbl p v) c;
  let diffs = ref [] in
  let emit d = diffs := d :: !diffs in
  List.iter
    (fun (path, bv) ->
       if not (skip path) then
         match Hashtbl.find_opt current_tbl path with
         | None ->
           emit { d_path = path; d_reason = "missing from current run" }
         | Some cv ->
           Option.iter emit (compare_values ~rel_tol path bv cv))
    b;
  let baseline_paths = Hashtbl.create (List.length b) in
  List.iter (fun (p, _) -> Hashtbl.replace baseline_paths p ()) b;
  List.iter
    (fun (path, cv) ->
       if (not (skip path)) && not (Hashtbl.mem baseline_paths path) then
         emit
           { d_path = path;
             d_reason =
               Fmt.str "not in baseline (current %s)" (leaf_text cv) })
    c;
  List.rev !diffs
