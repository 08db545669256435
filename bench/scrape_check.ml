(* CI validator for the live telemetry server (lib/telemetry).

   Phase 1 runs the E8-style SECDED fault campaign under the supervised
   runner with a telemetry server attached and scrapes all four
   endpoints WHILE the campaign runs: every /metrics body must be
   well-formed Prometheus text exposition (valid names, TYPE line per
   family, numeric values, histogram series typed by their base name),
   every /status body must carry schema elastic-speculation/status/v1
   with pending+running+completed+failed == shards, /healthz must answer
   200 or 503, and every /spans.jsonl line must parse as JSON.  After
   the run: all shards completed, /healthz is 200, and the final bodies
   land in METRICS_scrape.prom / STATUS_scrape.json as CI artifacts.

   Phase 2 is the watchdog contract, driven by an injected
   deterministic clock (Clock.ticker): a shard starts and its worker
   "dies" (no further heartbeats), so /healthz must flip to 503 with
   elastic_watchdog_stalls_total moving to exactly 1 (one stall
   episode, however often the watchdog polls), and flip back to 200 —
   counter still 1 — once the shard completes.

   Exit 0 with a one-line summary, exit 1 naming the first violation. *)

open Elastic_core
module Json = Elastic_metrics.Json
module Metrics = Elastic_metrics.Metrics
module Clock = Elastic_sim.Clock
module Runner = Elastic_runner.Runner
module Workload = Elastic_runner.Workload
module Progress = Elastic_runner.Progress
module Collector = Elastic_obs.Collector
module Telemetry = Elastic_telemetry.Telemetry

let die fmt = Fmt.kstr (fun m -> Fmt.epr "scrape_check: %s@." m; exit 1) fmt

(* ------------------------------------------------------------------ *)
(* Tiny HTTP client (stdlib only, like the server).                    *)

(* First occurrence of [needle] in [hay] (no Str library in bench). *)
let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let http_get ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       let req =
         Fmt.str "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path
       in
       let _ =
         Unix.write sock (Bytes.unsafe_of_string req) 0 (String.length req)
       in
       let buf = Buffer.create 4096 in
       let chunk = Bytes.create 4096 in
       let rec drain () =
         let k = Unix.read sock chunk 0 (Bytes.length chunk) in
         if k > 0 then begin
           Buffer.add_subbytes buf chunk 0 k;
           drain ()
         end
       in
       drain ();
       let raw = Buffer.contents buf in
       let code =
         match String.split_on_char ' ' raw with
         | _ :: c :: _ -> (
             match int_of_string_opt c with
             | Some code -> code
             | None -> die "GET %s: unparseable status line" path)
         | _ -> die "GET %s: empty response" path
       in
       let body =
         match find_substring raw "\r\n\r\n" with
         | Some i -> String.sub raw (i + 4) (String.length raw - i - 4)
         | None -> die "GET %s: no header terminator" path
       in
       (code, body))

(* ------------------------------------------------------------------ *)
(* Prometheus text-exposition well-formedness.                         *)

let strip_suffix name =
  let try_one suf =
    let n = String.length name and k = String.length suf in
    if n > k && String.sub name (n - k) k = suf then
      Some (String.sub name 0 (n - k))
    else None
  in
  match try_one "_bucket" with
  | Some b -> Some b
  | None -> (
      match try_one "_sum" with
      | Some b -> Some b
      | None -> try_one "_count")

let check_prometheus ~where text =
  let typed = Hashtbl.create 32 in
  let samples = ref 0 in
  (* Family-contiguity state: once the samples of a family end, that
     family must not reappear later in the exposition. *)
  let closed = Hashtbl.create 32 in
  let current_family = ref None in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
       let ln = i + 1 in
       if line = "" then ()
       else if line.[0] = '#' then (
         match String.split_on_char ' ' line with
         | "#" :: "TYPE" :: name :: [ kind ] ->
           if not (Metrics.valid_name name) then
             die "%s line %d: TYPE for invalid metric name %S" where ln
               name;
           if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
             die "%s line %d: unknown TYPE %S" where ln kind;
           if Hashtbl.mem typed name then
             die "%s line %d: duplicate TYPE for %s" where ln name;
           Hashtbl.replace typed name kind
         | "#" :: "HELP" :: name :: _ ->
           if not (Metrics.valid_name name) then
             die "%s line %d: HELP for invalid metric name %S" where ln
               name
         | _ ->
           die "%s line %d: unexpected comment %S (renderer emits only \
                HELP/TYPE)"
             where ln line)
       else begin
         incr samples;
         let name_end =
           match String.index_opt line '{', String.index_opt line ' ' with
           | Some b, Some sp -> min b sp
           | Some b, None -> b
           | None, Some sp -> sp
           | None, None ->
             die "%s line %d: sample %S has no value" where ln line
         in
         let name = String.sub line 0 name_end in
         if not (Metrics.valid_name name) then
           die "%s line %d: invalid sample name %S" where ln name;
         let base =
           if Hashtbl.mem typed name then name
           else
             match strip_suffix name with
             | Some b
               when Hashtbl.find_opt typed b = Some "histogram" ->
               b
             | _ ->
               die "%s line %d: sample %S has no preceding TYPE" where
                 ln name
         in
         (if !current_family <> Some base then begin
            if Hashtbl.mem closed base then
              die "%s line %d: family %s is not contiguous" where ln base;
            (match !current_family with
             | Some f -> Hashtbl.replace closed f ()
             | None -> ());
            current_family := Some base
          end);
         let value_start =
           match String.rindex_opt line '}' with
           | Some r -> r + 2 (* "} value" *)
           | None -> name_end + 1
         in
         if value_start >= String.length line then
           die "%s line %d: sample %S has no value" where ln line;
         let value =
           String.sub line value_start (String.length line - value_start)
         in
         match float_of_string_opt (String.trim value) with
         | Some _ -> ()
         | None ->
           die "%s line %d: non-numeric value %S" where ln value
       end)
    lines;
  if !samples = 0 then die "%s: no samples at all" where;
  (typed, !samples)

(* Value of a (label-free) counter/gauge sample, if present. *)
let sample_value text name =
  let prefix = name ^ " " in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
      if String.length line > String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then
        float_of_string_opt
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      else None)

(* ------------------------------------------------------------------ *)
(* Status document schema.                                             *)

let status_schema = "elastic-speculation/status/v1"

let check_status ~where body =
  let j =
    match Json.parse body with
    | Ok j -> j
    | Error m -> die "%s: not valid JSON: %s" where m
  in
  let str k =
    match Json.member k j with
    | Some (Json.Str s) -> s
    | _ -> die "%s: no string field %S" where k
  in
  let int k =
    match Json.member k j with
    | Some (Json.Int n) -> n
    | _ -> die "%s: no integer field %S" where k
  in
  (match Json.member "healthy" j with
   | Some (Json.Bool _) -> ()
   | _ -> die "%s: no boolean field \"healthy\"" where);
  if str "schema" <> status_schema then
    die "%s: schema %S, want %S" where (str "schema") status_schema;
  let shards = int "shards" in
  let sum =
    int "pending" + int "running" + int "completed" + int "failed"
  in
  if sum <> shards then
    die "%s: pending+running+completed+failed = %d, want shards = %d"
      where sum shards;
  if int "stalls" < 0 then die "%s: negative stalls" where;
  j

(* ------------------------------------------------------------------ *)
(* Phase 1: scrape a live SECDED campaign.                             *)

(* The library's SECDED campaign on E7's workload (see bench/main.ml):
   its first [count] single flips, one runner task each. *)
let secded_tasks ~count () =
  let c =
    Examples.secded_campaign
      ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:5 400)
  in
  Workload.of_campaign ~cycles:c.Examples.sc_cycles
    ~settle:c.Examples.sc_settle ~alarms:c.Examples.sc_alarms ~name:"secded"
    c.Examples.sc_net ~scenarios:(Examples.secded_flips c ~count)

let no_sleep _ = ()

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let phase1 () =
  let count = 24 in
  let tasks = secded_tasks ~count () in
  let ids =
    Array.of_list (List.map (fun (t : Runner.task) -> t.Runner.id) tasks)
  in
  let progress = Progress.create ~name:"secded" ~ids () in
  let obs = Collector.create ~capacity_per_track:4096 () in
  let hub = Telemetry.create () in
  Telemetry.set_progress hub (Some progress);
  Telemetry.set_collector hub (Some obs);
  let port =
    match Telemetry.start ~port:0 hub with
    | Ok p -> p
    | Error m -> die "server start: %s" m
  in
  let workers = max 2 (min 4 (Elastic_runner.Pool_backend.recommended ())) in
  Fmt.pr "phase 1: %d scenarios, %d workers (%s backend), port %d@." count
    workers
    (if Elastic_runner.Pool_backend.parallel then "domains" else "seq")
    port;
  let finished = ref false in
  let th =
    Thread.create
      (fun () ->
         let r =
           Runner.run ~workers ~sleep:no_sleep ~progress
             ~registry:(Telemetry.registry hub) ~obs ~name:"secded" tasks
         in
         if r.Runner.r_failed <> 0 then
           die "campaign: %d shards failed" r.Runner.r_failed;
         finished := true)
      ()
  in
  (* Scrape all four endpoints until the campaign ends; the loop runs
     at least once, so the invariants are exercised mid-run whenever
     the campaign outlives a single scrape round. *)
  let live_scrapes = ref 0 in
  let continue = ref true in
  while !continue do
    if !finished then continue := false;
    let code, metrics = http_get ~port "/metrics" in
    if code <> 200 then die "live /metrics: HTTP %d" code;
    ignore (check_prometheus ~where:"live /metrics" metrics);
    let code, status = http_get ~port "/status" in
    if code <> 200 then die "live /status: HTTP %d" code;
    ignore (check_status ~where:"live /status" status);
    let code, _ = http_get ~port "/healthz" in
    if code <> 200 && code <> 503 then die "live /healthz: HTTP %d" code;
    let code, spans = http_get ~port "/spans.jsonl" in
    if code <> 200 then die "live /spans.jsonl: HTTP %d" code;
    String.split_on_char '\n' spans
    |> List.iteri (fun i line ->
        if line <> "" then
          match Json.parse line with
          | Ok _ -> ()
          | Error m ->
            die "live /spans.jsonl line %d: not JSON: %s" (i + 1) m);
    incr live_scrapes;
    if !continue then Thread.delay 0.05
  done;
  Thread.join th;
  (* Settled state: everything completed, health green, runner gauges
     merged in. *)
  let code, metrics = http_get ~port "/metrics" in
  if code <> 200 then die "final /metrics: HTTP %d" code;
  let typed, samples = check_prometheus ~where:"final /metrics" metrics in
  List.iter
    (fun family ->
       if not (Hashtbl.mem typed family) then
         die "final /metrics: family %s missing" family)
    [ "elastic_build_info"; "elastic_watchdog_stalls_total";
      "elastic_runner_tasks_total"; "elastic_telemetry_requests_total" ];
  let code, status = http_get ~port "/status" in
  if code <> 200 then die "final /status: HTTP %d" code;
  let j = check_status ~where:"final /status" status in
  (match Json.member "completed" j with
   | Some (Json.Int c) when c = count -> ()
   | Some (Json.Int c) ->
     die "final /status: completed = %d, want %d" c count
   | _ -> die "final /status: no completed field");
  let code, _ = http_get ~port "/healthz" in
  if code <> 200 then die "final /healthz: HTTP %d (campaign is done)" code;
  write_file "METRICS_scrape.prom" metrics;
  write_file "STATUS_scrape.json" status;
  Telemetry.stop hub;
  Fmt.pr
    "phase 1: OK — %d live scrape rounds, final exposition %d samples \
     in %d families@."
    !live_scrapes samples (Hashtbl.length typed)

(* ------------------------------------------------------------------ *)
(* Phase 2: watchdog flip on an injected deterministic clock.          *)

let phase2 () =
  (* Every watchdog pass reads the progress plane's clock exactly once;
     with a 1s-per-reading ticker and a 5s deadline, health must flip
     within a handful of polls of the "worker death" — no wall-clock
     sleeps involved in the verdict. *)
  let clock = Clock.ticker ~step_ns:1_000_000_000L in
  let progress =
    Progress.create ~clock ~name:"wd" ~ids:[| "wd/0"; "wd/1" |] ()
  in
  let hub = Telemetry.create ~deadline_s:5.0 () in
  Telemetry.set_progress hub (Some progress);
  let port =
    match Telemetry.start ~port:0 hub with
    | Ok p -> p
    | Error m -> die "server start: %s" m
  in
  let healthz () = fst (http_get ~port "/healthz") in
  if healthz () <> 200 then die "phase 2: unhealthy before any shard runs";
  (* A worker picks up shard 0 and dies: one initial heartbeat, then
     silence.  Shard 1 stays pending — pending shards never stall. *)
  Progress.start_shard progress ~shard:0 ~worker:0 ~attempt:1
    ~now:(clock ());
  let rec await want attempts =
    if attempts = 0 then
      die "phase 2: /healthz never reached %d" want
    else if healthz () <> want then begin
      Thread.delay 0.01;
      await want (attempts - 1)
    end
  in
  await 503 400;
  let stalls () =
    let code, metrics = http_get ~port "/metrics" in
    if code <> 200 then die "phase 2 /metrics: HTTP %d" code;
    match sample_value metrics "elastic_watchdog_stalls_total" with
    | Some v -> int_of_float v
    | None -> die "phase 2: no elastic_watchdog_stalls_total sample"
  in
  if stalls () <> 1 then
    die "phase 2: stall episodes = %d after one death, want 1 (episode \
         counting, not poll counting)"
      (stalls ());
  (* The shard completes: the stall flag clears, health returns, and
     the episode counter stays at 1. *)
  Progress.complete progress ~shard:0 ~now:(clock ()) ~seconds:1.0 [];
  await 200 400;
  if stalls () <> 1 then
    die "phase 2: stall episodes moved to %d after recovery, want 1"
      (stalls ());
  Telemetry.stop hub;
  Fmt.pr "phase 2: OK — 503 on silent shard, 200 on completion, 1 stall \
          episode@."

let () =
  phase1 ();
  phase2 ();
  Fmt.pr "scrape_check: OK@."
