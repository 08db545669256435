open Elastic_kernel
open Elastic_netlist
open Elastic_sim

let data_bits = 64

(* VCD identifier codes: printable ASCII '!'..'~', little-endian base 94. *)
let id_code n =
  let b = Buffer.create 2 in
  let rec go n =
    Buffer.add_char b (Char.chr (33 + (n mod 94)));
    if n >= 94 then go ((n / 94) - 1)
  in
  go n;
  Buffer.contents b

let sanitize name =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> c
       | _ -> '_')
    name

(* Flattened 64-bit payload image: Bool 1 bit, Int 8 bits, Word 64 bits,
   Str 8 bits per character, tuples depth-first (the lib/fault layout,
   plus character bytes for Str so scripted letter streams are legible
   in the viewer).  Truncated to the low 64 bits. *)
let data_image v =
  let bits = ref 0L and off = ref 0 in
  let add width x =
    if !off < data_bits then begin
      let x =
        if width >= 64 then x
        else Int64.logand x (Int64.sub (Int64.shift_left 1L width) 1L)
      in
      bits := Int64.logor !bits (Int64.shift_left x !off);
      off := !off + width
    end
  in
  let rec go = function
    | Value.Unit -> ()
    | Value.Bool b -> add 1 (if b then 1L else 0L)
    | Value.Int n -> add 8 (Int64.of_int n)
    | Value.Word w -> add 64 w
    | Value.Str s -> String.iter (fun c -> add 8 (Int64.of_int (Char.code c))) s
    | Value.Tuple vs -> List.iter go vs
  in
  go v;
  !bits

let bin64 x =
  let b = Bytes.create data_bits in
  for i = 0 to data_bits - 1 do
    Bytes.set b i
      (if Int64.equal
            (Int64.logand (Int64.shift_right_logical x (data_bits - 1 - i)) 1L)
            1L
       then '1'
       else '0')
  done;
  Bytes.to_string b

type var = { code : string; width : int; mutable prev : string }

type chan_vars = {
  cv_channel : Netlist.channel_id;
  vp : var;
  sp : var;
  vm : var;
  sm : var;
  state : var;
  data : var;
}

type recorder = {
  buf : Buffer.t;
  vars : chan_vars array;
  mutable n_cycles : int;
}

let scalar_vars (c : Netlist.channel) next =
  let mk width =
    let v = { code = id_code !next; width; prev = "" } in
    incr next;
    v
  in
  { cv_channel = c.Netlist.ch_id;
    vp = mk 1;
    sp = mk 1;
    vm = mk 1;
    sm = mk 1;
    state = mk 2;
    data = mk data_bits }

let build_vars net =
  let next = ref 0 in
  List.map (fun c -> scalar_vars c next) (Netlist.channels net)
  |> Array.of_list

let header_into buf net vars =
  Buffer.add_string buf "$date\n  (deterministic)\n$end\n";
  Buffer.add_string buf
    "$version\n  elastic-speculation Elastic_trace.Vcd\n$end\n";
  Buffer.add_string buf "$timescale\n  1ns\n$end\n";
  Buffer.add_string buf "$scope module elastic $end\n";
  List.iteri
    (fun i (c : Netlist.channel) ->
       let cv = vars.(i) in
       let name = sanitize c.Netlist.ch_name in
       Buffer.add_string buf (Fmt.str "$scope module %s $end\n" name);
       List.iter
         (fun (v, field) ->
            Buffer.add_string buf
              (Fmt.str "$var wire %d %s %s $end\n" v.width v.code field))
         [ (cv.vp, "vp"); (cv.sp, "sp"); (cv.vm, "vm"); (cv.sm, "sm");
           (cv.state, "state"); (cv.data, "data") ];
       Buffer.add_string buf "$upscope $end\n")
    (Netlist.channels net);
  Buffer.add_string buf "$upscope $end\n";
  Buffer.add_string buf "$enddefinitions $end\n"

let dump_initial buf vars =
  Buffer.add_string buf "$dumpvars\n";
  Array.iter
    (fun cv ->
       List.iter
         (fun v ->
            if v.width = 1 then begin
              v.prev <- "x";
              Buffer.add_string buf (Fmt.str "x%s\n" v.code)
            end
            else begin
              v.prev <- "x";
              Buffer.add_string buf (Fmt.str "bx %s\n" v.code)
            end)
         [ cv.vp; cv.sp; cv.vm; cv.sm; cv.state; cv.data ])
    vars;
  Buffer.add_string buf "$end\n"

let create net =
  let vars = build_vars net in
  let buf = Buffer.create 4096 in
  header_into buf net vars;
  dump_initial buf vars;
  { buf; vars; n_cycles = 0 }

(* Strip leading zeros as VCD vector dumps conventionally do (keep one
   digit); "x" stays as is. *)
let compress_vec s =
  let n = String.length s in
  let rec first i = if i < n - 1 && s.[i] = '0' then first (i + 1) else i in
  let i = first 0 in
  if i = 0 then s else String.sub s i (n - i)

let change buf v value =
  if not (String.equal v.prev value) then begin
    v.prev <- value;
    if v.width = 1 then Buffer.add_string buf (Fmt.str "%s%s\n" value v.code)
    else
      Buffer.add_string buf (Fmt.str "b%s %s\n" (compress_vec value) v.code)
  end

let observe r eng =
  let cyc = Engine.cycle eng in
  let changes = Buffer.create 256 in
  Array.iter
    (fun cv ->
       let sg = Engine.signal eng cv.cv_channel in
       let rs = Signal.resolve sg in
       let bit b = if b then "1" else "0" in
       change changes cv.vp (bit sg.Signal.v_plus);
       change changes cv.sp (bit sg.Signal.s_plus);
       change changes cv.vm (bit sg.Signal.v_minus);
       change changes cv.sm (bit sg.Signal.s_minus);
       let st =
         if rs.Signal.v_minus then "11"
         else if rs.Signal.v_plus && rs.Signal.s_plus then "10"
         else if rs.Signal.v_plus then "01"
         else "00"
       in
       change changes cv.state st;
       match sg.Signal.data with
       | Some v when sg.Signal.v_plus ->
         change changes cv.data (bin64 (data_image v))
       | Some _ | None -> change changes cv.data (bin64 0L))
    r.vars;
  if Buffer.length changes > 0 then begin
    Buffer.add_string r.buf (Fmt.str "#%d\n" cyc);
    Buffer.add_buffer r.buf changes
  end;
  r.n_cycles <- r.n_cycles + 1

let contents r =
  (* Close the waveform at the final time so viewers show the last
     cycle's extent; emitted on read, not accumulated. *)
  Buffer.contents r.buf ^ Fmt.str "#%d\n" r.n_cycles

let save path r =
  let oc = open_out path in
  output_string oc (contents r);
  close_out oc

let header net =
  let vars = build_vars net in
  let buf = Buffer.create 1024 in
  header_into buf net vars;
  Buffer.contents buf
