module Json = Elastic_metrics.Json

let schema = "elastic-speculation/spans/v1"

let base_ns spans =
  List.fold_left
    (fun acc (s : Span.t) ->
       if Int64.compare s.Span.sp_start_ns acc < 0 then s.Span.sp_start_ns
       else acc)
    (match spans with
     | [] -> 0L
     | s :: _ -> s.Span.sp_start_ns)
    spans

let write_file path text =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let jsonl ?(campaign = "") spans =
  let base = base_ns spans in
  let buf = Buffer.create 4096 in
  let line j =
    Buffer.add_string buf (Json.to_string j);
    Buffer.add_char buf '\n'
  in
  line
    (Json.Obj
       [ ("schema", Json.Str schema);
         ("campaign", Json.Str campaign);
         ("trace",
          Json.Int
            (match spans with
             | [] -> 0
             | s :: _ -> s.Span.sp_trace));
         ("spans", Json.Int (List.length spans)) ]);
  List.iter (fun s -> line (Span.to_json ~base_ns:base s)) spans;
  Buffer.contents buf

let write_jsonl ~path ?campaign spans =
  write_file path (jsonl ?campaign spans)

(* Chrome trace-event JSON: integer microsecond [ts]/[dur] (the shared
   Json printer renders floats with 6 significant digits, far too
   coarse for timestamps), one [tid] per worker track named by an [M]
   metadata event, [X] events sorted by start so timestamps are
   monotone in file order — the CI validator asserts exactly that. *)
let chrome_json spans =
  let spans =
    List.sort
      (fun (a : Span.t) (b : Span.t) ->
         match Int64.compare a.Span.sp_start_ns b.Span.sp_start_ns with
         | 0 -> compare a.Span.sp_id b.Span.sp_id
         | c -> c)
      spans
  in
  let base = base_ns spans in
  let us ns = Int64.to_int (Int64.div ns 1000L) in
  let tracks =
    List.sort_uniq compare
      (List.map (fun (s : Span.t) -> s.Span.sp_track) spans)
  in
  let meta =
    Json.Obj
      [ ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.Str "elastic-speculation") ]) ]
    :: List.map
         (fun tid ->
            Json.Obj
              [ ("name", Json.Str "thread_name");
                ("ph", Json.Str "M");
                ("pid", Json.Int 1);
                ("tid", Json.Int tid);
                ("args",
                 Json.Obj
                   [ ("name", Json.Str (Fmt.str "worker %d" tid)) ]) ])
         tracks
  in
  let events =
    List.map
      (fun (s : Span.t) ->
         Json.Obj
           [ ("name", Json.Str s.Span.sp_name);
             ("cat", Json.Str (Span.kind_name s.Span.sp_kind));
             ("ph", Json.Str "X");
             ("ts", Json.Int (us (Int64.sub s.Span.sp_start_ns base)));
             ("dur", Json.Int (us (Span.duration_ns s)));
             ("pid", Json.Int 1);
             ("tid", Json.Int s.Span.sp_track);
             ("args",
              Json.Obj
                (("id", Json.Int s.Span.sp_id)
                 :: ("parent", Json.Int s.Span.sp_parent)
                 :: List.map
                      (fun (k, v) -> (k, Span.attr_to_json v))
                      s.Span.sp_attrs)) ])
      spans
  in
  Json.Obj
    [ ("traceEvents", Json.List (meta @ events));
      ("displayTimeUnit", Json.Str "ms") ]

let write_chrome ~path spans =
  write_file path (Json.to_string ~indent:1 (chrome_json spans) ^ "\n")

(* Collapsed stacks aggregate by the kind path (campaign;shard;attempt;
   settle), not by span name: a flamegraph over thousands of shards
   should show where campaign time goes per phase, not one bar per
   shard.  Values are self time (duration minus instrumented children)
   in microseconds. *)
let folded spans =
  let by_id = Hashtbl.create (List.length spans) in
  List.iter
    (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.sp_id s)
    spans;
  let child_ns = Hashtbl.create (List.length spans) in
  List.iter
    (fun (s : Span.t) ->
       if Hashtbl.mem by_id s.Span.sp_parent then
         Hashtbl.replace child_ns s.Span.sp_parent
           (Int64.add
              (Option.value ~default:0L
                 (Hashtbl.find_opt child_ns s.Span.sp_parent))
              (Span.duration_ns s)))
    spans;
  let rec path (s : Span.t) acc =
    let acc = Span.kind_name s.Span.sp_kind :: acc in
    match Hashtbl.find_opt by_id s.Span.sp_parent with
    | Some p -> path p acc
    | None -> acc
  in
  let stacks = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
       let self =
         Int64.sub (Span.duration_ns s)
           (Option.value ~default:0L
              (Hashtbl.find_opt child_ns s.Span.sp_id))
       in
       let self_us =
         Int64.to_int (Int64.div (Int64.max 0L self) 1000L)
       in
       let key = String.concat ";" (path s []) in
       Hashtbl.replace stacks key
         (Option.value ~default:0 (Hashtbl.find_opt stacks key) + self_us))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) stacks []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, v) -> Fmt.str "%s %d" k v)
  |> fun lines -> String.concat "\n" lines ^ if lines = [] then "" else "\n"

let write_folded ~path spans = write_file path (folded spans)
