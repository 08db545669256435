type severity = Error | Warning | Info

type fixit =
  | Insert_bubble of { channel : int }
  | Convert_buffer of { node : int; buffer : string }
  | Set_init of { node : int; tokens : int }
  | Note of string

type t = {
  code : string;
  rule : string;
  severity : severity;
  node : int option;
  node_name : string option;
  channel : int option;
  channel_name : string option;
  message : string;
  fixit : fixit option;
}

exception Reject of t

let make ~code ~rule ~severity ?node ?node_name ?channel ?channel_name
    ?fixit message =
  { code; rule; severity; node; node_name; channel; channel_name; message;
    fixit }

let reject d = raise (Reject d)

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"


let pp_fixit ppf = function
  | Insert_bubble { channel } ->
    Fmt.pf ppf "insert an empty EB on channel %d" channel
  | Convert_buffer { node; buffer } ->
    Fmt.pf ppf "convert buffer %d to %s" node buffer
  | Set_init { node; tokens } ->
    Fmt.pf ppf "give buffer %d %d initial token(s)" node tokens
  | Note s -> Fmt.string ppf s

let pp_provenance ppf d =
  let item what id name =
    Fmt.pf ppf " [%s %d%a]" what id
      Fmt.(option (fmt " %s"))
      name
  in
  Option.iter (fun id -> item "node" id d.node_name) d.node;
  Option.iter (fun id -> item "channel" id d.channel_name) d.channel

let pp ppf d =
  Fmt.pf ppf "%s %s%a: %s%a" d.code (severity_name d.severity)
    pp_provenance d d.message
    Fmt.(option (fun ppf f -> pf ppf " (fix: %a)" pp_fixit f))
    d.fixit

let to_string d = Fmt.str "%a" pp d

(* Register the rejection exception with a readable rendering, so an
   uncaught precheck failure prints the diagnostic, not just "Reject _". *)
let () =
  Printexc.register_printer (function
    | Reject d -> Some (Fmt.str "Diagnostic.Reject (%a)" pp d)
    | _ -> None)
