open Elastic_kernel
open Elastic_netlist

let add_line b net (e : Event.t) =
  let field_str k v =
    Printf.sprintf "\"%s\":\"%s\"" k (Elastic_metrics.Json.escape v)
  in
  let field_int k v = Printf.sprintf "\"%s\":%d" k v in
  let subject_fields =
    match e.Event.ev_subject with
    | Event.Chan cid ->
      [ field_int "ch" cid;
        field_str "at" (Netlist.channel net cid).Netlist.ch_name ]
    | Event.Node nid ->
      [ field_int "n" nid;
        field_str "at" (Netlist.node net nid).Netlist.name ]
  in
  let kind_fields =
    match e.Event.ev_kind with
    | Event.Transfer (Some v) -> [ field_str "v" (Value.to_string v) ]
    | Event.Transfer None -> []
    | Event.Stall | Event.Anti | Event.Cancel | Event.Inject -> []
    | Event.Occupancy { before; after } ->
      [ field_int "before" before; field_int "after" after ]
    | Event.Predict { way } | Event.Serve { way }
    | Event.Mispredict { way } ->
      [ field_int "way" way ]
    | Event.Replay { penalty } -> [ field_int "penalty" penalty ]
    | Event.Violation { property } -> [ field_str "prop" property ]
  in
  Buffer.add_char b '{';
  Buffer.add_string b
    (String.concat ","
       (field_int "c" e.Event.ev_cycle
        :: field_str "k" (Event.kind_label e.Event.ev_kind)
        :: subject_fields
        @ kind_fields));
  Buffer.add_string b "}\n"

let to_string net evs =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"elastic-speculation/trace/v1\",\"events\":%d}\n"
       (List.length evs));
  List.iter (add_line b net) evs;
  Buffer.contents b

let save path net evs =
  let oc = open_out path in
  output_string oc (to_string net evs);
  close_out oc
