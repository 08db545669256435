open Elastic_kernel
open Elastic_sched

(* Tokens are space-separated; names and string payloads are URI-style
   escaped so that a token never contains a space, parenthesis or
   comma. *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '%' | ' ' | '(' | ')' | ',' | '\n' | '\t' ->
         Buffer.add_string buf (Fmt.str "%%%02X" (Char.code c))
       | _ -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        Buffer.add_char buf
          (Char.chr (int_of_string ("0x" ^ String.sub s (i + 1) 2)));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Values                                                               *)

let rec write_value v =
  match v with
  | Value.Unit -> "u"
  | Value.Bool b -> if b then "b1" else "b0"
  | Value.Int i -> Fmt.str "i%d" i
  | Value.Word w -> Fmt.str "w%Ld" w
  | Value.Str s -> "s" ^ escape s
  | Value.Tuple vs ->
    Fmt.str "(%s)" (String.concat "," (List.map write_value vs))

exception Parse of string

let fail fmt = Fmt.kstr (fun m -> raise (Parse m)) fmt

(* Parse one value starting at position [i]; returns (value, next). *)
let rec parse_value s i =
  let n = String.length s in
  if i >= n then fail "empty value"
  else
    match s.[i] with
    | 'u' -> (Value.Unit, i + 1)
    | 'b' ->
      if i + 1 < n && s.[i + 1] = '1' then (Value.Bool true, i + 2)
      else (Value.Bool false, i + 2)
    | 'i' | 'w' | 's' ->
      let stop = ref (i + 1) in
      while !stop < n && s.[!stop] <> ',' && s.[!stop] <> ')' do
        incr stop
      done;
      let body = String.sub s (i + 1) (!stop - i - 1) in
      let v =
        match s.[i] with
        | 'i' ->
          (match int_of_string_opt body with
           | Some x -> Value.Int x
           | None -> fail "bad int %S" body)
        | 'w' ->
          (match Int64.of_string_opt body with
           | Some x -> Value.Word x
           | None -> fail "bad word %S" body)
        | _ -> Value.Str (unescape body)
      in
      (v, !stop)
    | '(' ->
      let rec elements acc j =
        if j >= n then fail "unterminated tuple"
        else if s.[j] = ')' then (List.rev acc, j + 1)
        else
          let v, j' = parse_value s j in
          if j' < n && s.[j'] = ',' then elements (v :: acc) (j' + 1)
          else if j' < n && s.[j'] = ')' then (List.rev (v :: acc), j' + 1)
          else fail "malformed tuple at %d" j'
      in
      if i + 1 < n && s.[i + 1] = ')' then (Value.Tuple [], i + 2)
      else
        let vs, j = elements [] (i + 1) in
        (Value.Tuple vs, j)
    | c -> fail "unexpected value character %C" c

let value_of_token tok =
  let v, stop = parse_value tok 0 in
  if stop <> String.length tok then fail "trailing garbage in value %S" tok
  else v

(* ------------------------------------------------------------------ *)
(* Scheduler specs                                                      *)

let write_sched = function
  | Scheduler.Static i -> Fmt.str "static:%d" i
  | Scheduler.Toggle -> "toggle"
  | Scheduler.Sticky -> "sticky"
  | Scheduler.Two_bit -> "two-bit"
  | Scheduler.Round_robin -> "round-robin"
  | Scheduler.Scripted a ->
    Fmt.str "scripted:%s"
      (String.concat "" (List.map string_of_int (Array.to_list a)))
  | Scheduler.Noisy_oracle { sel; accuracy_pct; seed } ->
    Fmt.str "oracle:%d:%d:%s" accuracy_pct seed
      (String.concat "" (List.map string_of_int (Array.to_list sel)))
  | Scheduler.External -> "external"
  | Scheduler.Prefer i -> Fmt.str "prefer:%d" i
  | Scheduler.Hinted_replay -> "hinted-replay"
  | Scheduler.Gshare { history_bits } -> Fmt.str "gshare:%d" history_bits

let digits s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '0' .. '9' -> Char.code s.[i] - Char.code '0'
      | c -> fail "bad digit %C in scheduler script" c)

let parse_sched tok =
  match String.split_on_char ':' tok with
  | [ "toggle" ] -> Scheduler.Toggle
  | [ "sticky" ] -> Scheduler.Sticky
  | [ "two-bit" ] -> Scheduler.Two_bit
  | [ "round-robin" ] -> Scheduler.Round_robin
  | [ "external" ] -> Scheduler.External
  | [ "hinted-replay" ] -> Scheduler.Hinted_replay
  | [ "static"; i ] -> Scheduler.Static (int_of_string i)
  | [ "prefer"; i ] -> Scheduler.Prefer (int_of_string i)
  | [ "gshare"; k ] -> Scheduler.Gshare { history_bits = int_of_string k }
  | [ "scripted"; d ] -> Scheduler.Scripted (digits d)
  | [ "oracle"; acc; seed; d ] ->
    Scheduler.Noisy_oracle
      { sel = digits d; accuracy_pct = int_of_string acc;
        seed = int_of_string seed }
  | _ -> fail "unknown scheduler spec %S" tok

(* ------------------------------------------------------------------ *)
(* Ports                                                                *)

let write_port = function
  | Netlist.Sel -> "sel"
  | Netlist.In i -> Fmt.str "in%d" i
  | Netlist.Out i -> Fmt.str "out%d" i

let parse_port tok =
  if String.equal tok "sel" then Netlist.Sel
  else
    let num prefix =
      let lp = String.length prefix in
      if String.length tok > lp && String.sub tok 0 lp = prefix then
        int_of_string_opt (String.sub tok lp (String.length tok - lp))
      else None
    in
    match num "in", num "out" with
    | Some i, _ -> Netlist.In i
    | _, Some i -> Netlist.Out i
    | None, None -> fail "bad port %S" tok

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)

let write_func (f : Func.t) =
  Fmt.str "%s %d %.17g %.17g" (escape f.Func.name) f.Func.arity f.Func.delay
    f.Func.area

let write_kind = function
  | Netlist.Source (Netlist.Stream vs) ->
    "source stream " ^ String.concat " " (List.map write_value vs)
  | Netlist.Source (Netlist.Counter { start; step }) ->
    Fmt.str "source counter %d %d" start step
  | Netlist.Source (Netlist.Random_rate { pct; seed }) ->
    Fmt.str "source random %d %d" pct seed
  | Netlist.Source (Netlist.Nondet vs) ->
    "source nondet " ^ String.concat " " (List.map write_value vs)
  | Netlist.Sink Netlist.Always_ready -> "sink ready"
  | Netlist.Sink (Netlist.Stall_pattern p) ->
    "sink pattern "
    ^ String.concat ""
        (List.map (fun b -> if b then "1" else "0") (Array.to_list p))
  | Netlist.Sink (Netlist.Random_stall { pct; seed }) ->
    Fmt.str "sink random %d %d" pct seed
  | Netlist.Buffer { buffer; init } ->
    Fmt.str "buffer %s%s"
      (Netlist.buffer_kind_name buffer)
      (String.concat ""
         (List.map (fun v -> " " ^ write_value v) init))
  | Netlist.Func f -> "func " ^ write_func f
  | Netlist.Fork n -> Fmt.str "fork %d" n
  | Netlist.Mux { ways; early } ->
    Fmt.str "mux %d %s" ways (if early then "early" else "plain")
  | Netlist.Shared { ways; f; sched; hinted } ->
    Fmt.str "shared %d %s %s %s" ways
      (if hinted then "hinted" else "plain")
      (write_sched sched) (write_func f)
  | Netlist.Varlat { fast; slow; err } ->
    Fmt.str "varlat %s %s %s" (write_func fast) (write_func slow)
      (write_func err)

let write ppf net =
  Fmt.pf ppf "elastic-netlist v1@.";
  List.iter
    (fun (n : Netlist.node) ->
       Fmt.pf ppf "node %d %s %s@." n.Netlist.id (escape n.Netlist.name)
         (write_kind n.Netlist.kind))
    (Netlist.nodes net);
  List.iter
    (fun (c : Netlist.channel) ->
       Fmt.pf ppf "chan %s %d %s %d %s %d@."
         (escape c.Netlist.ch_name)
         c.Netlist.src.Netlist.ep_node
         (write_port c.Netlist.src.Netlist.ep_port)
         c.Netlist.dst.Netlist.ep_node
         (write_port c.Netlist.dst.Netlist.ep_port)
         c.Netlist.width)
    (Netlist.channels net)

let to_string net = Fmt.str "%a" write net

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)

let parse_func = function
  | name :: arity :: delay :: area :: rest ->
    let f =
      match
        Library.resolve ~name:(unescape name)
          ~arity:(int_of_string arity)
          ~delay:(float_of_string delay) ~area:(float_of_string area)
      with
      | Ok f -> f
      | Error m -> fail "%s" m
    in
    (f, rest)
  | _ -> fail "truncated function spec"

let parse_kind words =
  match words with
  | "source" :: "stream" :: vs ->
    Netlist.Source (Netlist.Stream (List.map value_of_token vs))
  | [ "source"; "counter"; start; step ] ->
    Netlist.Source
      (Netlist.Counter
         { start = int_of_string start; step = int_of_string step })
  | [ "source"; "random"; pct; seed ] ->
    Netlist.Source
      (Netlist.Random_rate
         { pct = int_of_string pct; seed = int_of_string seed })
  | "source" :: "nondet" :: vs ->
    Netlist.Source (Netlist.Nondet (List.map value_of_token vs))
  | [ "sink"; "ready" ] -> Netlist.Sink Netlist.Always_ready
  | [ "sink"; "pattern"; bits ] ->
    Netlist.Sink
      (Netlist.Stall_pattern
         (Array.init (String.length bits) (fun i -> bits.[i] = '1')))
  | [ "sink"; "random"; pct; seed ] ->
    Netlist.Sink
      (Netlist.Random_stall
         { pct = int_of_string pct; seed = int_of_string seed })
  | "buffer" :: kind :: vs ->
    let buffer =
      match kind with
      | "eb" -> Netlist.Eb
      | "eb0" -> Netlist.Eb0
      | _ -> fail "unknown buffer kind %S" kind
    in
    Netlist.Buffer { buffer; init = List.map value_of_token vs }
  | "func" :: rest ->
    let f, extra = parse_func rest in
    if extra <> [] then fail "trailing tokens after func";
    Netlist.Func f
  | [ "fork"; n ] -> Netlist.Fork (int_of_string n)
  | [ "mux"; ways; mode ] ->
    Netlist.Mux
      { ways = int_of_string ways;
        early =
          (match mode with
           | "early" -> true
           | "plain" -> false
           | _ -> fail "bad mux mode %S" mode) }
  | "shared" :: ways :: hinted :: sched :: rest ->
    let f, extra = parse_func rest in
    if extra <> [] then fail "trailing tokens after shared";
    Netlist.Shared
      { ways = int_of_string ways;
        hinted =
          (match hinted with
           | "hinted" -> true
           | "plain" -> false
           | _ -> fail "bad shared mode %S" hinted);
        sched = parse_sched sched; f }
  | "varlat" :: rest ->
    let fast, rest = parse_func rest in
    let slow, rest = parse_func rest in
    let err, rest = parse_func rest in
    if rest <> [] then fail "trailing tokens after varlat";
    Netlist.Varlat { fast; slow; err }
  | w :: _ -> fail "unknown node kind %S" w
  | [] -> fail "empty node kind"

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  try
    match lines with
    | [] -> Error "empty file"
    | (n, header) :: rest ->
      if not (String.equal header "elastic-netlist v1") then
        fail "line %d: bad header %S" n header;
      let id_map = Hashtbl.create 16 in
      let read net line =
        let words =
          String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
        in
        match words with
        | "node" :: id :: name :: kind_words ->
          let kind = parse_kind kind_words in
          let id = int_of_string id in
          if Hashtbl.mem id_map id then fail "duplicate node id %d" id;
          let net, fresh = Netlist.add_node ~name:(unescape name) net kind in
          Hashtbl.replace id_map id fresh;
          net
        | [ "chan"; name; src; sport; dst; dport; width ] ->
          let resolve id =
            match Hashtbl.find_opt id_map (int_of_string id) with
            | Some n -> n
            | None -> fail "channel references unknown node %s" id
          in
          let net, _ =
            Netlist.connect ~name:(unescape name) ~width:(int_of_string width)
              net
              (resolve src, parse_port sport)
              (resolve dst, parse_port dport)
          in
          net
        | w :: _ -> fail "unknown line kind %S" w
        | [] -> net
      in
      (* Every error raised while reading a line names it, 1-based in
         [text]. *)
      let net =
        List.fold_left
          (fun net (n, line) ->
             try read net line with
             | Parse m | Failure m | Invalid_argument m ->
               fail "line %d: %s" n m)
          Netlist.empty rest
      in
      (match Netlist.validate net with
       | [] -> Ok net
       | ps -> Error ("loaded netlist invalid: " ^ String.concat "; " ps))
  with Parse m | Failure m | Invalid_argument m -> Error m

let save path net =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  write ppf net;
  Format.pp_print_flush ppf ();
  close_out oc

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    parse text
