open Elastic_kernel
open Elastic_netlist

type rule = {
  code : string;
  slug : string;
  severity : Diagnostic.severity;
  what : string;
  paper : string;
  check : Netlist.t -> Diagnostic.t list;
}

let structural_codes = [ "E001"; "E002"; "E003"; "E004" ]

let structural code slug what =
  {
    code;
    slug;
    severity = Diagnostic.Error;
    what;
    paper = "§3";
    check =
      (fun net ->
         List.filter
           (fun (d : Diagnostic.t) -> d.Diagnostic.code = code)
           (Netlist.diagnostics net));
  }

let registry =
  [
    structural "E001" "unconnected-port"
      "every required port of every node is connected";
    structural "E002" "multi-connected-port"
      "no port is connected more than once";
    structural "E003" "dangling-channel"
      "every channel endpoint names an existing node";
    structural "E004" "bad-width" "every channel has a positive width";
    {
      code = "W005";
      slug = "unreachable-from-source";
      severity = Diagnostic.Warning;
      what = "every node is fed (transitively) by a token source";
      paper = "§3";
      check = Rules.unreachable_from_source;
    };
    {
      code = "W006";
      slug = "cannot-reach-sink";
      severity = Diagnostic.Warning;
      what = "every node's tokens can reach a sink";
      paper = "§3";
      check = Rules.cannot_reach_sink;
    };
    {
      code = "E101";
      slug = "buffer-overfilled";
      severity = Diagnostic.Error;
      what = "initial tokens fit the buffer capacity C = Lf + Lb";
      paper = "§3, Fig. 2/5";
      check = Rules.buffer_overfilled;
    };
    {
      code = "E102";
      slug = "comb-cycle";
      severity = Diagnostic.Error;
      what = "every cycle is broken by an EB in both directions";
      paper = "§3, Fig. 5";
      check = Halves.combinational_cycle;
    };
    {
      code = "E103";
      slug = "token-free-cycle";
      severity = Diagnostic.Error;
      what = "every cycle carries a token (liveness of the marked graph)";
      paper = "§3";
      check = Rules.token_free_cycle;
    };
    {
      code = "W104";
      slug = "antitoken-through-eb";
      severity = Diagnostic.Warning;
      what = "anti-tokens into early-mux inputs return through eb0s";
      paper = "§4.1/§4.3, Fig. 5";
      check = Rules.antitoken_through_eb;
    };
    {
      code = "W201";
      slug = "no-scheduler";
      severity = Diagnostic.Warning;
      what = "every speculation controller has a scheduler attached";
      paper = "§4.2";
      check = Rules.external_scheduler;
    };
    {
      code = "I200";
      slug = "speculation-candidate";
      severity = Diagnostic.Info;
      what = "mux select computed on the cycle the mux feeds";
      paper = "§4, Fig. 1";
      check =
        (fun net ->
           List.filter
             (fun (d : Diagnostic.t) -> d.Diagnostic.code = "I200")
             (Rules.mux_on_critical_cycle net));
    };
    {
      code = "I201";
      slug = "speculative-select";
      severity = Diagnostic.Info;
      what = "early-evaluation mux select fed from its critical cycle";
      paper = "§4.1, Fig. 1";
      check =
        (fun net ->
           List.filter
             (fun (d : Diagnostic.t) -> d.Diagnostic.code = "I201")
             (Rules.mux_on_critical_cycle net));
    };
    {
      code = "I202";
      slug = "shared-arms";
      severity = Diagnostic.Info;
      what = "shared block feeding several speculative arms of one mux";
      paper = "§4.2, Fig. 4";
      check = Rules.shared_arms;
    };
  ]

let find_rule key =
  let k = String.lowercase_ascii key in
  List.find_opt
    (fun r -> String.lowercase_ascii r.code = k || r.slug = k)
    registry

type report = {
  diags : Diagnostic.t list;
  rules_run : int;
  gated : bool;
}

let severity_rank = function
  | Diagnostic.Error -> 0
  | Diagnostic.Warning -> 1
  | Diagnostic.Info -> 2

let run ?(only = []) ?(disable = []) net =
  let mem keys r =
    List.exists
      (fun k ->
         let k = String.lowercase_ascii k in
         String.lowercase_ascii r.code = k || r.slug = k)
      keys
  in
  let enabled r = (only = [] || mem only r) && not (mem disable r) in
  (* Graph rules assume a structurally sound netlist; gate on the real
     structural state, not just the enabled subset. *)
  let gate = Netlist.diagnostics net <> [] in
  let ran = ref 0 in
  let diags =
    List.concat_map
      (fun r ->
         if not (enabled r) then []
         else if gate && not (List.mem r.code structural_codes) then []
         else begin
           incr ran;
           r.check net
         end)
      registry
  in
  let diags =
    List.stable_sort
      (fun (a : Diagnostic.t) (b : Diagnostic.t) ->
         compare
           (severity_rank a.Diagnostic.severity)
           (severity_rank b.Diagnostic.severity))
      diags
  in
  { diags; rules_run = !ran; gated = gate }

let by_severity s report =
  List.filter
    (fun (d : Diagnostic.t) -> d.Diagnostic.severity = s)
    report.diags

let errors = by_severity Diagnostic.Error

let warnings = by_severity Diagnostic.Warning

let infos = by_severity Diagnostic.Info

let clean report = errors report = []

let render report =
  let summary =
    Fmt.str "lint: %d error(s), %d warning(s), %d info(s) from %d rule(s)%s"
      (List.length (errors report))
      (List.length (warnings report))
      (List.length (infos report))
      report.rules_run
      (if report.gated then
         " — graph rules skipped until structural errors are fixed"
       else "")
  in
  match report.diags with
  | [] -> Fmt.str "lint: clean (%d rule(s))" report.rules_run
  | diags ->
    String.concat "\n"
      (List.map (fun d -> "  " ^ Diagnostic.to_string d) diags
       @ [ summary ])

(* {1 JSONL export (schema elastic-speculation/lint/v1)} *)

let json_of_fixit : Diagnostic.fixit -> Elastic_metrics.Json.t = function
  | Diagnostic.Insert_bubble { channel } ->
    Obj [ ("kind", Str "insert-bubble"); ("channel", Int channel) ]
  | Diagnostic.Convert_buffer { node; buffer } ->
    Obj
      [ ("kind", Str "convert-buffer"); ("node", Int node);
        ("buffer", Str buffer) ]
  | Diagnostic.Set_init { node; tokens } ->
    Obj [ ("kind", Str "set-init"); ("node", Int node);
          ("tokens", Int tokens) ]
  | Diagnostic.Note note -> Obj [ ("kind", Str "note"); ("note", Str note) ]

let json_of_diag (d : Diagnostic.t) : Elastic_metrics.Json.t =
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  Obj
    ([ ("code", Elastic_metrics.Json.Str d.Diagnostic.code);
       ("rule", Str d.Diagnostic.rule);
       ("severity", Str (Diagnostic.severity_name d.Diagnostic.severity)) ]
     @ opt "node" (fun n -> Elastic_metrics.Json.Int n) d.Diagnostic.node
     @ opt "node_name" (fun s -> Elastic_metrics.Json.Str s)
         d.Diagnostic.node_name
     @ opt "channel" (fun n -> Elastic_metrics.Json.Int n)
         d.Diagnostic.channel
     @ opt "channel_name" (fun s -> Elastic_metrics.Json.Str s)
         d.Diagnostic.channel_name
     @ [ ("message", Elastic_metrics.Json.Str d.Diagnostic.message) ]
     @ opt "fixit" json_of_fixit d.Diagnostic.fixit)

let jsonl ~design net report =
  let header : Elastic_metrics.Json.t =
    Obj
      [ ("schema", Str "elastic-speculation/lint/v1");
        ("design", Str design);
        ("nodes", Int (Netlist.node_count net));
        ("channels", Int (Netlist.channel_count net));
        ("rules_run", Int report.rules_run);
        ("gated", Bool report.gated);
        ("errors", Int (List.length (errors report)));
        ("warnings", Int (List.length (warnings report)));
        ("infos", Int (List.length (infos report))) ]
  in
  String.concat ""
    (List.map
       (fun j -> Elastic_metrics.Json.to_string j ^ "\n")
       (header :: List.map json_of_diag report.diags))

(* {1 Fix-it application} *)

(* Reimplemented on the raw netlist API (lint cannot depend on
   [Elastic_core.Transform] — Transform consults [Precheck]). *)
let insert_bubble net channel =
  let c = Netlist.channel net channel in
  let net, b = Netlist.add_node net (Netlist.Buffer { buffer = Netlist.Eb; init = [] }) in
  let old_dst = c.Netlist.dst in
  let net = Netlist.set_dst net channel (b, Netlist.In 0) in
  let net, _ =
    Netlist.connect ~width:c.Netlist.width net (b, Netlist.Out 0)
      (old_dst.Netlist.ep_node, old_dst.Netlist.ep_port)
  in
  net

let apply_one net : Diagnostic.fixit -> Netlist.t option = function
  | Diagnostic.Note _ -> None
  | Diagnostic.Insert_bubble { channel } ->
    Some (insert_bubble net channel)
  | Diagnostic.Convert_buffer { node; buffer } -> (
      let kind =
        match buffer with
        | "eb" -> Some Netlist.Eb
        | "eb0" -> Some Netlist.Eb0
        | _ -> None
      in
      match (kind, (Netlist.node net node).Netlist.kind) with
      | Some k, Netlist.Buffer { init; _ }
        when List.length init <= Netlist.buffer_capacity k ->
        Some (Netlist.replace_kind net node (Netlist.Buffer { buffer = k; init }))
      | _ -> None)
  | Diagnostic.Set_init { node; tokens } -> (
      match (Netlist.node net node).Netlist.kind with
      | Netlist.Buffer { buffer; _ }
        when tokens <= Netlist.buffer_capacity buffer ->
        Some
          (Netlist.replace_kind net node
             (Netlist.Buffer
                { buffer; init = List.init tokens (fun _ -> Value.Int 0) }))
      | _ -> None)

let apply_fixes net report =
  List.fold_left
    (fun (net, k) (d : Diagnostic.t) ->
       match d.Diagnostic.fixit with
       | None -> (net, k)
       | Some fixit -> (
           match apply_one net fixit with
           | Some net' -> (net', k + 1)
           | None | (exception Invalid_argument _) -> (net, k)))
    (net, 0) report.diags
