module Json = Elastic_metrics.Json
module Metrics = Elastic_metrics.Metrics

let schema = "elastic-speculation/checkpoint/v1"

type header = {
  campaign : string;
  command : string option;
  shards : int;
  seed : int;
}

type entry = {
  e_id : string;
  e_index : int;
  e_attempts : int;
  e_seconds : float;
  e_samples : Metrics.sample list;
}

type t = {
  header : header;
  entries : entry list;
  truncated : bool;
}

let header_to_json h =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("campaign", Json.Str h.campaign);
      ("command",
       match h.command with Some c -> Json.Str c | None -> Json.Null);
      ("shards", Json.Int h.shards);
      ("seed", Json.Int h.seed) ]

let header_of_json j =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "schema" j with
    | Some (Json.Str s) when String.equal s schema -> Ok ()
    | Some (Json.Str s) ->
      Error (Fmt.str "unsupported checkpoint schema %S (want %S)" s schema)
    | Some _ | None -> Error "checkpoint header has no \"schema\" field"
  in
  let* campaign =
    match Json.member "campaign" j with
    | Some (Json.Str s) -> Ok s
    | Some _ | None -> Error "checkpoint header: bad \"campaign\" field"
  in
  let* command =
    match Json.member "command" j with
    | Some (Json.Str s) -> Ok (Some s)
    | Some Json.Null | None -> Ok None
    | Some _ -> Error "checkpoint header: bad \"command\" field"
  in
  let* shards =
    match Json.member "shards" j with
    | Some (Json.Int i) when i >= 0 -> Ok i
    | Some _ | None -> Error "checkpoint header: bad \"shards\" field"
  in
  let* seed =
    match Json.member "seed" j with
    | Some (Json.Int i) -> Ok i
    | Some _ | None -> Error "checkpoint header: bad \"seed\" field"
  in
  Ok { campaign; command; shards; seed }

let entry_to_json e =
  Json.Obj
    [ ("shard", Json.Str e.e_id);
      ("index", Json.Int e.e_index);
      ("attempts", Json.Int e.e_attempts);
      ("seconds", Json.Float e.e_seconds);
      ("samples", Metrics.samples_to_json e.e_samples) ]

let entry_of_json j =
  let ( let* ) = Result.bind in
  let* id =
    match Json.member "shard" j with
    | Some (Json.Str s) -> Ok s
    | Some _ | None -> Error "entry: bad \"shard\" field"
  in
  let* index =
    match Json.member "index" j with
    | Some (Json.Int i) when i >= 0 -> Ok i
    | Some _ | None -> Error "entry: bad \"index\" field"
  in
  let* attempts =
    match Json.member "attempts" j with
    | Some (Json.Int i) when i >= 1 -> Ok i
    | Some _ | None -> Error "entry: bad \"attempts\" field"
  in
  (* Absent in pre-spans checkpoints: default 0.0, still loadable. *)
  let* seconds =
    match Json.member "seconds" j with
    | Some s -> (
        match Json.to_float s with
        | Some f when f >= 0.0 -> Ok f
        | Some _ | None -> Error "entry: bad \"seconds\" field")
    | None -> Ok 0.0
  in
  let* samples =
    match Json.member "samples" j with
    | Some s -> Metrics.samples_of_json s
    | None -> Error "entry: \"samples\" field missing"
  in
  Ok { e_id = id; e_index = index; e_attempts = attempts;
       e_seconds = seconds; e_samples = samples }

let write ~path header entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
       output_string oc (Json.to_string (header_to_json header));
       output_char oc '\n';
       List.iter
         (fun e ->
            output_string oc (Json.to_string (entry_to_json e));
            output_char oc '\n')
         entries;
       flush oc);
  Sys.rename tmp path

let append ~path e =
  let oc =
    open_out_gen [ Open_append; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
       output_string oc (Json.to_string (entry_to_json e));
       output_char oc '\n';
       flush oc)

let load path =
  let ( let* ) = Result.bind in
  let* contents =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error msg -> Error msg
  in
  (* A file killed mid-append may end without a newline: the final
     fragment is recoverable data loss, not corruption. *)
  let ends_nl =
    String.length contents > 0
    && contents.[String.length contents - 1] = '\n'
  in
  let lines = String.split_on_char '\n' contents in
  let lines = List.filter (fun l -> String.length l > 0) lines in
  match lines with
  | [] -> Error "empty checkpoint file"
  | header_line :: entry_lines ->
    let* header =
      match Json.parse header_line with
      | Ok j -> header_of_json j
      | Error e -> Error (Fmt.str "header line: %s" e)
    in
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc, false)
      | line :: rest -> (
          let last = rest = [] in
          match Json.parse line with
          | Ok j -> (
              match entry_of_json j with
              | Ok e -> go (e :: acc) (lineno + 1) rest
              | Error _ when last && not ends_nl -> Ok (List.rev acc, true)
              | Error e -> Error (Fmt.str "line %d: %s" lineno e))
          | Error _ when last && not ends_nl -> Ok (List.rev acc, true)
          | Error e -> Error (Fmt.str "line %d: %s" lineno e))
    in
    let* entries, truncated = go [] 2 entry_lines in
    Ok { header; entries; truncated }
