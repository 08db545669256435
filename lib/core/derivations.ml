open Elastic_datapath
open Elastic_netlist
open Elastic_check

type chain = {
  c_name : string;
  c_describe : string;
  c_source : Netlist.t;
  c_derived : Netlist.t;
  c_cert : Cert.t;
}

let fig_chain ~name ~describe build =
  let src = (Figures.fig1a ()).Figures.net in
  let cert = Cert.create () in
  let h = build ~cert in
  { c_name = name; c_describe = describe; c_source = src;
    c_derived = h.Figures.net; c_cert = Cert.certificate cert }

(* The slack chains pipeline the sink feed of the E5/E6 speculative
   designs: extra {e empty} buffering on the output channel is flow
   preserving (bubble/FIFO lemmas) and the freshly inserted stage is
   then converted to the fast Eb0 implementation of §4.3.  Note the
   rewrites only ever touch buffers the chain itself inserted — the
   recovery buffers inside the speculative stage must stay Eb0, since
   an Eb there makes returning anti-tokens crawl (lint W104) and the
   verifier's E405 invariant would void the step's lemma. *)
let sink_feed (d : Examples.design) =
  match Netlist.channel_at d.Examples.d_net d.Examples.d_sink (Netlist.In 0)
  with
  | Some ch -> ch.Netlist.ch_id
  | None -> invalid_arg "Derivations: speculative design has no sink feed"

let vl_slack_chain ~name ~describe (d : Examples.design) =
  let cert = Cert.create () in
  let net, stages =
    Transform.insert_fifo ~cert d.Examples.d_net ~channel:(sink_feed d)
      ~depth:2
  in
  let last =
    match List.rev stages with
    | b :: _ -> b
    | [] -> invalid_arg "Derivations: empty FIFO"
  in
  let net = Transform.convert_buffer ~cert net last Netlist.Eb0 in
  { c_name = name; c_describe = describe; c_source = d.Examples.d_net;
    c_derived = net; c_cert = Cert.certificate cert }

let rs_slack_chain ~name ~describe (d : Examples.design) =
  let cert = Cert.create () in
  let net, _b =
    Transform.insert_buffer ~cert d.Examples.d_net ~channel:(sink_feed d)
      ~buffer:Netlist.Eb0 ~init:[]
  in
  { c_name = name; c_describe = describe; c_source = d.Examples.d_net;
    c_derived = net; c_cert = Cert.certificate cert }

let all ?(ops = 12) () =
  [ fig_chain ~name:"fig1b"
      ~describe:
        "Fig. 1(a) -> 1(b): bubble inserted in the critical cycle"
      (fun ~cert -> Figures.fig1b ~cert ());
    fig_chain ~name:"fig1c"
      ~describe:
        "Fig. 1(a) -> 1(c): Shannon decomposition + early evaluation"
      (fun ~cert -> Figures.fig1c ~cert ());
    fig_chain ~name:"fig1d"
      ~describe:
        "Fig. 1(a) -> 1(d): the full speculation recipe (shannon, \
         early-eval, share)"
      (fun ~cert -> Figures.fig1d ~cert ());
    vl_slack_chain ~name:"vl-slack"
      ~describe:
        "E5 variable-latency ALU: depth-2 FIFO on the sink feed, last \
         stage converted to the fast Eb0 implementation"
      (Examples.vl_speculative
         ~ops:(Alu.operands ~error_rate_pct:25 ~seed:5 ops));
    rs_slack_chain ~name:"rs-slack"
      ~describe:
        "E6 SECDED replay stage: empty Eb0 stage inserted on the sink \
         feed (recorded as bubble insertion + conversion)"
      (Examples.rs_speculative
         ~ops:(Examples.rs_ops ~error_rate_pct:25 ~seed:5 ops)) ]

let find ?ops name =
  List.find_opt (fun c -> String.equal c.c_name name) (all ?ops ())

let verify (c : chain) =
  Flow.verify ~design:c.c_name ~source:c.c_source ~derived:c.c_derived
    c.c_cert
