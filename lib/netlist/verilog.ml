(* Controller modules are generated from the {!Control} tables, one
   parameterized module per controller family with one generate branch
   per shape (port count, or initial tokens for buffers) in use.  What is
   written by hand here is the datapath (EB data registers, multiplexor
   data selects, function-block bindings), the scheduler modules and the
   wiring of the top module. *)

let header =
  {|// ---------------------------------------------------------------------
// Elastic control primitives (SELF protocol with token counterflow).
// Generated by elastic-speculation; see DESIGN.md.
// Channel wires: vp/sp forward handshake, vm/sm backward (anti-token)
// handshake.  A token and an anti-token meeting on a channel cancel.
// Controller state is one-hot; every controller module below is printed
// from the same equation tables as the BLIF and SMV exports.
// ---------------------------------------------------------------------

// Scheduler primitives driving a shared module's `pred` (the index of
// the predicted channel).  `served` and `retry` come back from the
// shared module's output channels.
module sched_static #(parameter N = 2, parameter HOME = 0) (
  input clk, input rst, output [$clog2(N)-1:0] pred
);
  assign pred = HOME;
endmodule

module sched_toggle #(parameter N = 2) (
  input clk, input rst, output reg [$clog2(N)-1:0] pred
);
  always @(posedge clk) begin
    if (rst) pred <= 0;
    else pred <= (pred == N - 1) ? 0 : pred + 1;
  end
endmodule

module sched_sticky #(parameter N = 2) (
  input clk, input rst, input retry, output reg [$clog2(N)-1:0] pred
);
  always @(posedge clk) begin
    if (rst) pred <= 0;
    else if (retry) pred <= (pred == N - 1) ? 0 : pred + 1;
  end
endmodule

module sched_round_robin #(parameter N = 2) (
  input clk, input rst, input served, input retry,
  output reg [$clog2(N)-1:0] pred
);
  always @(posedge clk) begin
    if (rst) pred <= 0;
    else if (served | retry) pred <= (pred == N - 1) ? 0 : pred + 1;
  end
endmodule
|}

let rec expr ppf (e : Control.e) =
  let list sep ppf xs = Fmt.(list ~sep:(any sep) expr) ppf xs in
  match e with
  | Control.T | Control.And [] -> Fmt.string ppf "1'b1"
  | Control.F | Control.Or [] -> Fmt.string ppf "1'b0"
  | Control.Var v -> Fmt.string ppf v
  | Control.Is (x, j) -> Fmt.pf ppf "(%s == %d)" x j
  | Control.Not x -> Fmt.pf ppf "~%a" expr x
  | Control.And xs -> Fmt.pf ppf "(%a)" (list " & ") xs
  | Control.Or xs -> Fmt.pf ppf "(%a)" (list " | ") xs

(* Bits needed to encode [ways] values (at least one). *)
let bits ways =
  let rec go b cap = if cap >= ways then b else go (b + 1) (cap * 2) in
  go 1 2

(* A controller family: one Verilog module.  [key] is the parameter that
   selects the generated branch; a vector port group carries one channel
   per bit.  Buffers add their data registers ([data]) by hand. *)
type family = {
  name : string;
  key : string option;
  extra : (string * int) list;
  vec_in : bool;
  vec_out : bool;
  choice_w : string;
  data : string list * string;
}

let base =
  { name = ""; key = None; extra = []; vec_in = false; vec_out = false;
    choice_w = "1"; data = ([], "") }

(* The module port group of a channel port, and its bit in a vector
   group. *)
let group fm (p : Netlist.port) =
  match p with
  | Netlist.Sel -> ("sel", None)
  | Netlist.In k -> ("i", if fm.vec_in then Some k else None)
  | Netlist.Out k -> ("o", if fm.vec_out then Some k else None)

(* Module port of control bit [f] of the channel at [p]. *)
let port fm p f =
  match group fm p with
  | pre, Some k -> Fmt.str "%s_%s[%d]" pre f k
  | pre, None -> Fmt.str "%s_%s" pre f

let eb_data =
  ( [ "input [WIDTH-1:0] i_d"; "output [WIDTH-1:0] o_d" ],
    Fmt.str
      {|  // Datapath: a two-entry FIFO written when a token enters and read
  // when one leaves (delivered or killed).
  reg [WIDTH-1:0] mem [0:1];
  reg wr, rd;
  assign o_d = mem[rd];
  always @(posedge clk)
    if (rst) begin wr <= INIT %% 2; rd <= 1'b0; end
    else begin
      if (%a) begin mem[wr] <= i_d; wr <= ~wr; end
      if (%a) rd <= ~rd;
    end
|}
      expr
      (Control.token_in (fun f -> "i_" ^ f))
      expr
      (Control.token_out (fun f -> "o_" ^ f)) )

let eb0_data =
  ( [ "input [WIDTH-1:0] i_d"; "output reg [WIDTH-1:0] o_d" ],
    Fmt.str "  // Datapath: one register loaded when a token enters.\n\
             \  always @(posedge clk) if (%a) o_d <= i_d;\n"
      expr
      (Control.token_in (fun f -> "i_" ^ f)) )

(* The family of a control shape, the value of its key and the shape its
   branch is generated from: a lazy multiplexor is, control-wise, the
   lazy join of its select and its data inputs. *)
let rec family (s : Control.shape) =
  let buffer name data =
    { base with name; key = Some "INIT"; extra = [ ("WIDTH", 8) ]; data }
  in
  let n name = { base with name; key = Some "N" } in
  match s with
  | Control.Source -> ({ base with name = "source_ctrl" }, 0, s)
  | Control.Sink -> ({ base with name = "sink_ctrl" }, 0, s)
  | Control.Eb k -> (buffer "eb" eb_data, k, s)
  | Control.Eb0 full -> (buffer "eb0" eb0_data, Bool.to_int full, s)
  | Control.Join k -> ({ (n "join_ctrl") with vec_in = true }, k, s)
  | Control.Fork k -> ({ (n "fork_ctrl") with vec_out = true }, k, s)
  | Control.Mux { ways; early = false } -> family (Control.Join (ways + 1))
  | Control.Mux { ways; early = true } ->
    ( { (n "emux_ctrl") with
        extra = [ ("SELW", 1) ]; vec_in = true; choice_w = "SELW" },
      ways, s )
  | Control.Shared { ways; hinted } ->
    ( { (n (if hinted then "shared_hint_ctrl" else "shared_ctrl")) with
        vec_in = true; vec_out = true; choice_w = "$clog2(N)" },
      ways, s )
  | Control.Varlat -> ({ base with name = "varlat_ctrl" }, 0, s)

(* The table of one branch, printed with the family's port names; also
   the port groups and the port nets it uses. *)
let branch_table fm shape =
  let groups = ref [] and nets = ref [] in
  let wire p f =
    groups := fst (group fm p) :: !groups;
    nets := port fm p f :: !nets;
    port fm p f
  in
  let t = Control.table ~u:"c" ~wire shape in
  (t, !groups, !nets)

let pp_branch ind ppf (t, _, nets) =
  let line fmt = Fmt.pf ppf ("%s" ^^ fmt ^^ "@.") ind in
  let regs = t.Control.regs in
  if regs <> [] then
    line "reg %s;" (String.concat ", " (List.map (fun r -> r.Control.q) regs));
  List.iter
    (fun (net, e) ->
       line "%s %s = %a;"
         (if List.mem net nets then "assign" else "wire")
         net expr e)
    t.Control.assigns;
  if regs <> [] then begin
    let each f =
      List.iter (fun r -> line "    %s <= %s;" r.Control.q (f r)) regs
    in
    line "always @(posedge clk)";
    line "  if (rst) begin";
    each (fun r -> if r.Control.init then "1'b1" else "1'b0");
    line "  end else begin";
    each (fun r -> r.Control.d);
    line "  end"
  end

(* One module for [fm], with a generate branch per [(key, shape)]. *)
let pp_module ppf fm branches =
  let tables = List.map (fun (k, s) -> (k, branch_table fm s)) branches in
  let t0, used, _ = snd (List.hd tables) in
  let params =
    (match fm.key with Some k -> [ (k, fst (List.hd branches)) ] | None -> [])
    @ fm.extra
  in
  let inward = [ "input"; "output"; "output"; "input" ] in
  let outward = [ "output"; "input"; "input"; "output" ] in
  let group (pre, vec, dirs) =
    if not (List.mem pre used) then []
    else
      List.map2
        (fun f d ->
           Fmt.str "%s %s%s_%s" d (if vec then "[N-1:0] " else "") pre f)
        [ "vp"; "sp"; "vm"; "sm" ] dirs
  in
  let ports =
    [ "input clk"; "input rst" ]
    @ List.map
        (function
          | Control.Bit x -> "input " ^ x
          | Control.Choice (x, _) -> Fmt.str "input [%s-1:0] %s" fm.choice_w x)
        t0.Control.inputs
    @ List.concat_map group
        [ ("sel", false, inward); ("i", fm.vec_in, inward);
          ("o", fm.vec_out, outward) ]
    @ fst fm.data
  in
  Fmt.pf ppf "@.module %s %s(@.  %s@.);@." fm.name
    (match params with
     | [] -> ""
     | _ ->
       Fmt.str "#(%s) "
         (String.concat ", "
            (List.map (fun (p, v) -> Fmt.str "parameter %s = %d" p v) params)))
    (String.concat ",\n  " ports);
  (match fm.key with
   | None -> List.iter (fun (_, b) -> pp_branch "  " ppf b) tables
   | Some k ->
     Fmt.pf ppf "  generate@.";
     List.iteri
       (fun i (v, b) ->
          Fmt.pf ppf "    %sif (%s == %d) begin : %s%d@."
            (if i = 0 then "" else "else ")
            k v (String.lowercase_ascii k) v;
          pp_branch "      " ppf b;
          Fmt.pf ppf "    end@.")
       tables;
     Fmt.pf ppf "  endgenerate@.");
  Fmt.pf ppf "%sendmodule@." (snd fm.data)

(* One module per family in use, in name order, with one branch per key
   in use. *)
let pp_library ppf shapes =
  let rec go = function
    | [] -> ()
    | (fm, k, s) :: rest ->
      let mine, others =
        List.partition (fun (fm', _, _) -> fm'.name = fm.name) rest
      in
      pp_module ppf fm ((k, s) :: List.map (fun (_, k, s) -> (k, s)) mine);
      go others
  in
  List.map family shapes
  |> List.sort_uniq (fun (a, k, _) (b, l, _) -> compare (a.name, k) (b.name, l))
  |> go

(* The library for the two-port shape of every family. *)
let prelude =
  Fmt.str "%s%a" header pp_library
    [ Control.Source; Control.Sink; Control.Eb 0; Control.Eb0 false;
      Control.Join 2; Control.Fork 2;
      Control.Mux { ways = 2; early = true };
      Control.Shared { ways = 2; hinted = false };
      Control.Shared { ways = 2; hinted = true }; Control.Varlat ]

let emit_top ppf ~top net =
  let nodes = Netlist.nodes net in
  let chan (n : Netlist.node) p =
    match Netlist.channel_at net n.Netlist.id p with
    | Some c -> c
    | None -> invalid_arg "Verilog.emit: missing channel"
  in
  let at n p = Fmt.str "ch%d" (chan n p).Netlist.ch_id in
  (* The environment's offers, source data and stalls are inputs. *)
  let env_ports =
    List.concat_map
      (fun (n : Netlist.node) ->
         let u = Control.sanitize n.Netlist.name in
         match n.Netlist.kind with
         | Netlist.Source _ ->
           [ "input offer_" ^ u;
             Fmt.str "input [%d:0] data_%s"
               ((chan n (Netlist.Out 0)).Netlist.width - 1) u ]
         | Netlist.Sink _ -> [ "input stall_" ^ u ]
         | _ -> [])
      nodes
  in
  Fmt.pf ppf "module %s (%s);@." (Control.sanitize top)
    (String.concat ", " ("input clk" :: "input rst" :: env_ports));
  List.iter
    (fun (c : Netlist.channel) ->
       let b = Fmt.str "ch%d" c.Netlist.ch_id in
       Fmt.pf ppf "  wire %s_vp, %s_sp, %s_vm, %s_sm;@." b b b b;
       Fmt.pf ppf "  wire [%d:0] %s_d;  // %s@." (c.Netlist.width - 1) b
         c.Netlist.ch_name)
    (Netlist.channels net);
  List.iter
    (fun (n : Netlist.node) ->
       let name = Control.sanitize n.Netlist.name in
       let u = "u_" ^ name in
       let fm, key, shape = family (Control.shape n.Netlist.kind) in
       let req = Netlist.required_inputs n.Netlist.kind in
       let outs = List.map (at n) (Netlist.required_outputs n.Netlist.kind) in
       let sel, ins =
         match n.Netlist.kind with
         | Netlist.Mux { early = false; _ } -> ([], List.map (at n) req)
         | _ ->
           List.partition_map
             (fun p ->
                if p = Netlist.Sel then Either.Left (at n p)
                else Either.Right (at n p))
             req
       in
       let line fmt = Fmt.pf ppf ("  " ^^ fmt ^^ "@.") in
       (* Per kind: environment-input bindings, extra parameter values and
          data ports of the controller; the datapath after it. *)
       let env, extra, data, after =
         match n.Netlist.kind with
         | Netlist.Source _ ->
           ( [ "offer_" ^ name ], [], [],
             fun () -> line "assign %s_d = data_%s;" (List.hd outs) name )
         | Netlist.Sink _ -> ([ "stall_" ^ name ], [], [], ignore)
         | Netlist.Buffer _ ->
           ( [], [ (chan n (Netlist.In 0)).Netlist.width ],
             [ ("i_d", List.hd ins); ("o_d", List.hd outs) ],
             ignore )
         | Netlist.Func f ->
           ( [], [], [],
             fun () ->
               line "f_%s %s_dp (%s.out(%s_d));" (Control.sanitize f.Func.name) u
                 (String.concat ""
                    (List.mapi (fun i b -> Fmt.str ".in%d(%s_d), " i b) ins))
                 (List.hd outs) )
         | Netlist.Fork _ ->
           ( [], [], [],
             fun () ->
               List.iter
                 (fun o -> line "assign %s_d = %s_d;" o (List.hd ins))
                 outs )
         | Netlist.Mux { ways; early } ->
           let s = at n Netlist.Sel in
           let data = List.filter (fun c -> c <> s) ins in
           let selw = bits ways in
           ( (if early then [ Fmt.str "%s_d[%d:0]" s (selw - 1) ] else []),
             (if early then [ selw ] else []), [],
             fun () ->
               (* Datapath select: a priority chain over the select value;
                  the 2-way form tests bit 0. *)
               if ways = 2 then
                 line "assign %s_d = %s_d[0] ? %s_d : %s_d;" (List.hd outs) s
                   (List.nth data 1) (List.nth data 0)
               else
                 line "assign %s_d = %s;" (List.hd outs)
                   (String.concat ""
                      (List.mapi
                         (fun j b ->
                            if j = ways - 1 then Fmt.str "%s_d" b
                            else
                              Fmt.str "(%s_d[%d:0] == %d'd%d) ? %s_d : " s
                                (selw - 1) selw j b)
                         data)) )
         | Netlist.Shared { ways; f; sched; hinted } ->
           line "wire [%d:0] %s_pred;" (bits ways - 1) u;
           let retry =
             String.concat " | "
               (List.map (fun o -> Fmt.str "(%s_vp & %s_sp)" o o) outs)
           in
           let served =
             Control.Or
               (List.map (fun o -> Control.token_out (fun f -> o ^ "_" ^ f)) outs)
           in
           let module S = Elastic_sched.Scheduler in
           let inst m params binds =
             line
               "%s #(.N(%d)%s) %s_sched (.clk(clk), .rst(rst),%s \
                .pred(%s_pred));"
               m ways params u binds u
           in
           (match sched with
            | S.Static home -> inst "sched_static" (Fmt.str ", .HOME(%d)" home) ""
            | S.Toggle -> inst "sched_toggle" "" ""
            | S.Sticky -> inst "sched_sticky" "" (Fmt.str " .retry(%s)," retry)
            | S.Round_robin ->
              inst "sched_round_robin" ""
                (Fmt.str " .served(%a), .retry(%s)," expr served retry)
            | S.Two_bit | S.Scripted _ | S.Noisy_oracle _ | S.External
            | S.Prefer _ | S.Hinted_replay | S.Gshare _ ->
              line "// scheduler %s%s: bind %s_pred to user RTL"
                (S.spec_name sched) (if hinted then " (hinted)" else "") u);
           ( [ u ^ "_pred" ], [], [],
             fun () ->
               List.iteri
                 (fun j o ->
                    line "f_%s %s_dp%d (.in0(%s_d), .out(%s_d));"
                      (Control.sanitize f.Func.name) u j (List.nth ins j) o)
                 outs )
         | Netlist.Varlat { fast; slow; err } ->
           line
             "// stalling variable-latency unit %s: fast=f_%s slow=f_%s \
              err=f_%s"
             n.Netlist.name (Control.sanitize fast.Func.name)
             (Control.sanitize slow.Func.name) (Control.sanitize err.Func.name);
           line "wire %s_slow;" u;
           line "f_%s %s_errdp (.in0(%s_d), .out(%s_slow));"
             (Control.sanitize err.Func.name) u (List.hd ins) u;
           ([ u ^ "_slow" ], [], [], ignore)
       in
       let t, _, _ = branch_table fm shape in
       let params =
         (match fm.key with Some k -> [ (k, key) ] | None -> [])
         @ List.map2 (fun (p, _) v -> (p, v)) fm.extra extra
       in
       let bind pre vec chans =
         if chans = [] then []
         else
           List.map
             (fun f ->
                let bit c = c ^ "_" ^ f in
                Fmt.str ".%s_%s(%s)" pre f
                  (if vec then
                     Fmt.str "{%s}" (String.concat ", " (List.rev_map bit chans))
                   else bit (List.hd chans)))
             [ "vp"; "sp"; "vm"; "sm" ]
           |> String.concat ", "
           |> fun s -> [ s ]
       in
       let binds =
         List.map2
           (fun (Control.Bit x | Control.Choice (x, _)) v -> Fmt.str ".%s(%s)" x v)
           t.Control.inputs env
         @ bind "sel" false sel @ bind "i" fm.vec_in ins
         @ bind "o" fm.vec_out outs
         @ List.map (fun (p, c) -> Fmt.str ".%s(%s_d)" p c) data
       in
       line "%s %s%s (.clk(clk), .rst(rst),@.    %s);" fm.name
         (match params with
          | [] -> ""
          | _ ->
            Fmt.str "#(%s) "
              (String.concat ", "
                 (List.map (fun (p, v) -> Fmt.str ".%s(%d)" p v) params)))
         u
         (String.concat ",\n    " binds);
       after ())
    nodes;
  Fmt.pf ppf "endmodule@."

let emit ppf ~top net =
  Netlist.validate_exn net;
  Fmt.pf ppf "%s%a@.%a" header pp_library
    (List.map (fun (n : Netlist.node) -> Control.shape n.Netlist.kind)
       (Netlist.nodes net))
    (fun ppf () -> emit_top ppf ~top net) ()

let to_string ~top net = Fmt.str "%a" (fun ppf () -> emit ppf ~top net) ()

let save path ~top net =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  emit ppf ~top net;
  Format.pp_print_flush ppf ();
  close_out oc
