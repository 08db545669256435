(* Flat control-abstract SMV model: every node's {!Control} table printed
   as boolean registers (VAR/ASSIGN), environment inputs (IVAR) and
   combinational equations (DEFINE).  Only the environment model is
   written here: fairness on offers, stalls and predictions, the early
   multiplexor's select held across retries, and the per-channel
   protocol properties.  Channel wire names: vp_<id>, sp_<id>, vm_<id>,
   sm_<id>. *)

type sections = {
  vars : Buffer.t;
  ivars : Buffer.t;
  defines : Buffer.t;
  assigns : Buffer.t;
  fairness : Buffer.t;
  specs : Buffer.t;
}

let bpf b fmt = Fmt.kstr (Buffer.add_string b) fmt

let rec expr ppf (e : Control.e) =
  let list sep ppf xs = Fmt.(list ~sep:(any sep) expr) ppf xs in
  match e with
  | Control.T | Control.And [] -> Fmt.string ppf "TRUE"
  | Control.F | Control.Or [] -> Fmt.string ppf "FALSE"
  | Control.Var v -> Fmt.string ppf v
  | Control.Is (x, j) -> Fmt.pf ppf "%s = %d" x j
  | Control.Not (Control.(Var _ | And (_ :: _) | Or (_ :: _)) as x) ->
    Fmt.pf ppf "!%a" expr x
  | Control.Not x -> Fmt.pf ppf "!(%a)" expr x
  | Control.And xs -> Fmt.pf ppf "(%a)" (list " & ") xs
  | Control.Or xs -> Fmt.pf ppf "(%a)" (list " | ") xs

let emit_node net s (n : Netlist.node) =
  let u = Control.sanitize n.Netlist.name in
  let shape = Control.shape n.Netlist.kind in
  let t = Control.node net n in
  List.iter
    (function
      | Control.Bit x -> bpf s.ivars "    %s : boolean;\n" x
      | Control.Choice (x, ways) -> (
          match shape with
          | Control.Mux { early = true; _ } ->
            (* Data abstraction: the select value is a nondeterministic
               input latched across retries (a real select is
               persistent data). *)
            let sel =
              Option.get (Netlist.channel_at net n.Netlist.id Netlist.Sel)
            in
            bpf s.ivars "    pick_%s : 0..%d;\n" u (ways - 1);
            bpf s.vars "    held_%s : 0..%d;\n" u (ways - 1);
            bpf s.vars "    retry_%s : boolean;\n" u;
            bpf s.defines "    %s := retry_%s ? held_%s : pick_%s;\n" x u u u;
            bpf s.assigns "    init(retry_%s) := FALSE;\n" u;
            bpf s.assigns "    next(retry_%s) := %s & %s;\n" u
              (Control.bit "vp" sel) (Control.bit "sp" sel);
            bpf s.assigns "    init(held_%s) := 0;\n" u;
            bpf s.assigns "    next(held_%s) := %s;\n" u x
          | _ -> bpf s.ivars "    %s : 0..%d;\n" x (ways - 1)))
    t.Control.inputs;
  List.iter
    (fun { Control.d; q; init } ->
       bpf s.vars "    %s : boolean;\n" q;
       bpf s.assigns "    init(%s) := %s;\n" q (if init then "TRUE" else "FALSE");
       bpf s.assigns "    next(%s) := %s;\n" q d)
    t.Control.regs;
  List.iter
    (fun (net, e) -> bpf s.defines "    %s := %a;\n" net expr e)
    t.Control.assigns;
  (* The environment eventually offers, eventually accepts, and the
     nondeterministic scheduler grants every way infinitely often (the
     paper's verification setup). *)
  match shape with
  | Control.Source -> bpf s.fairness "FAIRNESS offer_%s;\n" u
  | Control.Sink -> bpf s.fairness "FAIRNESS !stall_%s;\n" u
  | Control.Shared { ways; _ } ->
    for j = 0 to ways - 1 do
      bpf s.fairness "FAIRNESS pred_%s = %d;\n" u j
    done
  | Control.Eb _ | Control.Eb0 _ | Control.Join _ | Control.Fork _
  | Control.Mux _ | Control.Varlat -> ()

let emit ppf net =
  Netlist.validate_exn net;
  let s =
    { vars = Buffer.create 512; ivars = Buffer.create 256;
      defines = Buffer.create 1024; assigns = Buffer.create 512;
      fairness = Buffer.create 128; specs = Buffer.create 512 }
  in
  List.iter (emit_node net s) (Netlist.nodes net);
  List.iter
    (fun (c : Netlist.channel) ->
       let vp = Control.bit "vp" c and sp = Control.bit "sp" c in
       let vm = Control.bit "vm" c and sm = Control.bit "sm" c in
       bpf s.specs "-- channel %s\n" c.Netlist.ch_name;
       let persistent =
         match (Netlist.node net c.Netlist.src.ep_node).Netlist.kind with
         | Netlist.Shared _ -> false
         | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _
         | Netlist.Func _ | Netlist.Fork _ | Netlist.Mux _
         | Netlist.Varlat _ -> true
       in
       if persistent then
         bpf s.specs "LTLSPEC G ((%s & %s & !%s) -> X %s)\n" vp sp vm vp;
       bpf s.specs "LTLSPEC G ((%s & %s & !%s) -> X %s)\n" vm sm vp vm;
       bpf s.specs "LTLSPEC G !(%s & !%s & %s)\n" vp vm sm;
       bpf s.specs "LTLSPEC G !(%s & !%s & %s)\n" vm vp sp;
       bpf s.specs "LTLSPEC G F ((%s & (!%s | %s)) | (%s & (!%s | %s)) | \
                    !(%s | %s))\n"
         vp sp vm vm sm vp vp vm)
    (Netlist.channels net);
  Fmt.pf ppf "-- Generated by elastic-speculation (control abstraction)@.";
  Fmt.pf ppf "MODULE main@.";
  if Buffer.length s.vars > 0 then
    Fmt.pf ppf "VAR@.%s" (Buffer.contents s.vars);
  if Buffer.length s.ivars > 0 then
    Fmt.pf ppf "IVAR@.%s" (Buffer.contents s.ivars);
  if Buffer.length s.defines > 0 then
    Fmt.pf ppf "DEFINE@.%s" (Buffer.contents s.defines);
  if Buffer.length s.assigns > 0 then
    Fmt.pf ppf "ASSIGN@.%s" (Buffer.contents s.assigns);
  Fmt.pf ppf "%s" (Buffer.contents s.fairness);
  Fmt.pf ppf "%s" (Buffer.contents s.specs)

let to_string net = Fmt.str "%a" emit net

let save path net =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  emit ppf net;
  Format.pp_print_flush ppf ();
  close_out oc
