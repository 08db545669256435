(* A small structural gate builder on top of BLIF [.names] tables that
   prints each node's {!Control} table: registers become [.latch]es,
   environment inputs primary inputs, and every assignment a tree of
   single-output gates.  SMV and Verilog print the same tables. *)

type ctx = {
  buf : Buffer.t;
  mutable fresh : int;
  mutable inputs : string list;  (* reversed *)
  mutable outputs : string list;  (* reversed *)
  mutable latches : (string * string * bool) list;  (* input, output, init *)
}

let bpf ctx fmt = Fmt.kstr (Buffer.add_string ctx.buf) fmt

let fresh ctx =
  ctx.fresh <- ctx.fresh + 1;
  Fmt.str "g%d" ctx.fresh

let input ctx name = ctx.inputs <- name :: ctx.inputs

let output ctx name = ctx.outputs <- name :: ctx.outputs

let latch ctx ~d ~q ~init =
  ctx.latches <- (d, q, init) :: ctx.latches

(* Emit gates computing [e] into the net [out].  A choice has two values
   here, one input bit: [Is (x, 1)] is [x] and [Is (x, 0)] is [not x]. *)
let rec assign ctx out (e : Control.e) =
  match e with
  | Control.T -> bpf ctx ".names %s\n1\n" out
  | Control.F -> bpf ctx ".names %s\n" out
  | Control.Var v | Control.Is (v, 1) -> bpf ctx ".names %s %s\n1 1\n" v out
  | Control.Is (x, _) -> assign ctx out (Control.Not (Control.Var x))
  | Control.Not x ->
    let v = operand ctx x in
    bpf ctx ".names %s %s\n0 1\n" v out
  | Control.And xs ->
    (match xs with
     | [] -> assign ctx out Control.T
     | _ ->
       let vs = List.map (operand ctx) xs in
       bpf ctx ".names %s %s\n%s 1\n" (String.concat " " vs) out
         (String.make (List.length vs) '1'))
  | Control.Or xs ->
    (match xs with
     | [] -> assign ctx out Control.F
     | _ ->
       let vs = List.map (operand ctx) xs in
       bpf ctx ".names %s %s\n" (String.concat " " vs) out;
       List.iteri
         (fun i _ ->
            let cube =
              String.init (List.length vs) (fun j ->
                  if i = j then '1' else '-')
            in
            bpf ctx "%s 1\n" cube)
         vs)

and operand ctx e =
  match e with
  | Control.Var v | Control.Is (v, 1) -> v
  | Control.T | Control.F | Control.Is _ | Control.Not _ | Control.And _
  | Control.Or _ ->
    let v = fresh ctx in
    assign ctx v e;
    v

let emit_node net ctx (n : Netlist.node) =
  let t = Control.node net n in
  List.iter
    (function
      | Control.Bit x | Control.Choice (x, 2) -> input ctx x
      | Control.Choice (_, ways) ->
        invalid_arg
          (Fmt.str
             "Blif.emit: %s has %d ways; only 2-way multiplexors and \
              shared modules are supported"
             n.Netlist.name ways))
    t.Control.inputs;
  List.iter
    (fun { Control.d; q; init } -> latch ctx ~d ~q ~init)
    t.Control.regs;
  List.iter (fun (net, e) -> assign ctx net e) t.Control.assigns

let emit ppf ~model net =
  Netlist.validate_exn net;
  let ctx =
    { buf = Buffer.create 4096; fresh = 0; inputs = []; outputs = [];
      latches = [] }
  in
  List.iter (emit_node net ctx) (Netlist.nodes net);
  (* Expose every channel's control bits for observability. *)
  List.iter
    (fun (c : Netlist.channel) ->
       List.iter
         (fun f -> output ctx (Control.bit f c))
         [ "vp"; "sp"; "vm"; "sm" ])
    (Netlist.channels net);
  Fmt.pf ppf ".model %s@." (Control.sanitize model);
  Fmt.pf ppf ".inputs %s@."
    (String.concat " " (List.rev ctx.inputs));
  Fmt.pf ppf ".outputs %s@."
    (String.concat " " (List.rev ctx.outputs));
  List.iter
    (fun (d, q, init) ->
       Fmt.pf ppf ".latch %s %s re clk %d@." d q (if init then 1 else 0))
    (List.rev ctx.latches);
  Fmt.pf ppf "%s" (Buffer.contents ctx.buf);
  Fmt.pf ppf ".end@."

let to_string ~model net = Fmt.str "%a" (fun ppf () -> emit ppf ~model net) ()

let save path ~model net =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  emit ppf ~model net;
  Format.pp_print_flush ppf ();
  close_out oc
