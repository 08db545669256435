module Json = Elastic_metrics.Json

let schema = "elastic-speculation/status/v1"

(* The core fields read one plane; [elapsed], [eta], the watchdog
   fields, [slowest] and [extra] are the source's own. *)
let doc ~source ~campaign ~elapsed ~eta ~healthy ~stalls ~utilization
    ~slowest p extra =
  let c = Progress.counts p in
  Json.Obj
    ([ ("schema", Json.Str schema);
       ("source", Json.Str source);
       ("campaign", campaign);
       ("shards", Json.Int (Progress.shards p));
       ("pending", Json.Int c.c_pending);
       ("running", Json.Int c.c_running);
       ("completed", Json.Int c.c_completed);
       ("failed", Json.Int c.c_failed);
       ("resumed", Json.Int (Progress.resumed p));
       ("retried", Json.Int (Progress.retried p));
       ("attempts", Json.Int (Progress.attempts_total p));
       ("elapsed_seconds", Json.Float elapsed);
       ("eta_seconds",
        match eta with Some e -> Json.Float e | None -> Json.Null);
       ("healthy", Json.Bool healthy);
       ("stalls", Json.Int stalls);
       ("workers",
        Json.List
          (List.map
             (fun (w, u) ->
                Json.Obj
                  [ ("worker", Json.Int w); ("utilization", Json.Float u) ])
             utilization));
       ("slowest",
        match slowest with
        | Some (id, index, seconds, attempts) ->
          Json.Obj
            [ ("shard", Json.Str id);
              ("index", Json.Int index);
              ("seconds", Json.Float seconds);
              ("attempts", Json.Int attempts) ]
        | None -> Json.Null) ]
     @ extra)

let stopped_clock () = 0L

let idle = Progress.create ~clock:stopped_clock ~name:"" ~ids:[||] ()

let of_progress ?(healthy = true) ?(stalls = 0) ?(utilization = []) p =
  match p with
  | None ->
    doc ~source:"idle" ~campaign:Json.Null ~elapsed:0.0 ~eta:None ~healthy
      ~stalls ~utilization ~slowest:None idle []
  | Some p ->
    doc ~source:"live"
      ~campaign:(Json.Str (Progress.name p))
      ~elapsed:(Progress.elapsed_seconds p)
      ~eta:(Progress.eta_seconds p) ~healthy ~stalls ~utilization
      ~slowest:(Progress.slowest p) p []

(* A loaded checkpoint as a plane: each entry completed at its index
   with its attempts and seconds, every other shard pending.  The plane
   spans the header's shard count, or more if an entry's index lies
   past it; a repeated index keeps the file's last entry. *)
let plane_of_checkpoint (cp : Checkpoint.t) =
  let shards =
    List.fold_left
      (fun m (e : Checkpoint.entry) -> max m (e.e_index + 1))
      cp.header.shards cp.entries
  in
  let ids = Array.make shards "" in
  List.iter (fun (e : Checkpoint.entry) -> ids.(e.e_index) <- e.e_id)
    cp.entries;
  let p =
    Progress.create ~clock:stopped_clock ~name:cp.header.campaign ~ids ()
  in
  List.iter
    (fun (e : Checkpoint.entry) ->
       Progress.start_shard p ~shard:e.e_index ~worker:(-1)
         ~attempt:e.e_attempts ~now:0L;
       Progress.complete p ~shard:e.e_index ~now:0L ~seconds:e.e_seconds
         e.e_samples)
    cp.entries;
  p

(* Pre-spans checkpoints carry no per-shard seconds: no slowest. *)
let checkpoint_slowest p =
  match Progress.slowest p with
  | Some (_, _, 0.0, _) -> None
  | s -> s

let checkpoint_seconds (cp : Checkpoint.t) =
  List.fold_left
    (fun acc (e : Checkpoint.entry) -> acc +. e.e_seconds)
    0.0 cp.entries

let of_checkpoint (cp : Checkpoint.t) =
  let p = plane_of_checkpoint cp in
  doc ~source:"checkpoint"
    ~campaign:(Json.Str cp.header.campaign)
    ~elapsed:(checkpoint_seconds cp) ~eta:None ~healthy:true ~stalls:0
    ~utilization:[] ~slowest:(checkpoint_slowest p) p
    [ ("truncated", Json.Bool cp.truncated);
      ("command",
       match cp.header.command with
       | Some c -> Json.Str c
       | None -> Json.Null) ]

let pp_checkpoint ppf (cp : Checkpoint.t) =
  let p = plane_of_checkpoint cp in
  let c = Progress.counts p in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "campaign %S: %d/%d shards checkpointed%s%a" cp.header.campaign
    c.c_completed (Progress.shards p)
    (if cp.truncated then " (final line truncated, dropped)" else "")
    (fun ppf -> function
       | Some c -> Fmt.pf ppf "; resume command: %S" c
       | None -> ())
    cp.header.command;
  (* Only completed shards reach the file, so the pending ones are the
     failed and never-started shards — the resume work list. *)
  if c.c_completed > 0 then begin
    Fmt.pf ppf
      "@,shards: %d completed (%d after retries), %d failed or not run@,\
       attempts: %d across completed shards, %.3fs total"
      c.c_completed (Progress.retried p) c.c_pending
      (Progress.attempts_total p) (checkpoint_seconds cp);
    match checkpoint_slowest p with
    | Some (id, index, seconds, attempts) ->
      Fmt.pf ppf "@,slowest shard: %s (index %d) %.3fs, %d attempt%s" id
        index seconds attempts
        (if attempts = 1 then "" else "s")
    | None -> ()
  end;
  Fmt.pf ppf "@]"
