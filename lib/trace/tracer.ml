open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_sim

type t = {
  mutable ring : Event.t array;  (* grows by doubling up to [cap] *)
  cap : int;
  mutable next : int;  (* write position *)
  mutable total : int;  (* events ever recorded *)
  channels : Netlist.channel array;
  scheds : Netlist.node_id Scheduler.watch array;
  occ : (Netlist.node_id, int) Hashtbl.t;
  mutable violations_seen : int;
}

let dummy =
  { Event.ev_cycle = -1; ev_subject = Event.Chan (-1); ev_kind = Event.Stall }

let create ?(capacity = 65536) eng =
  if capacity < 1 then invalid_arg "Tracer.create: capacity must be >= 1";
  let net = Engine.netlist eng in
  let occ = Hashtbl.create 8 in
  List.iter (fun (nid, n) -> Hashtbl.replace occ nid n)
    (Engine.occupancies eng);
  { ring = Array.make (min capacity 256) dummy;
    cap = capacity;
    next = 0;
    total = 0;
    channels = Array.of_list (Netlist.channels net);
    scheds =
      Array.of_list
        (List.map
           (fun (nid, sched) -> Scheduler.watch sched nid)
           (Engine.schedulers eng));
    occ;
    violations_seen = Engine.violation_count eng }

let push t ev =
  (* Until the ring first wraps, [next] is its fill: double it. *)
  if t.next = Array.length t.ring && t.next < t.cap then
    t.ring <-
      Array.append t.ring (Array.make (min t.next (t.cap - t.next)) dummy);
  t.ring.(t.next) <- ev;
  t.next <- (t.next + 1) mod t.cap;
  t.total <- t.total + 1

let observe t eng =
  let cyc = Engine.cycle eng in
  let ev ~subject kind =
    push t { Event.ev_cycle = cyc; ev_subject = subject; ev_kind = kind }
  in
  (* Injected faults first: causes before consequences. *)
  List.iter (fun cid -> ev ~subject:(Event.Chan cid) Event.Inject)
    (Engine.injected eng);
  (* Channel handshake events, in dense channel order. *)
  Array.iter
    (fun (c : Netlist.channel) ->
       let cid = c.Netlist.ch_id in
       let bev = Engine.events eng cid in
       if bev.Signal.token_in then
         ev ~subject:(Event.Chan cid)
           (Event.Transfer (Engine.signal eng cid).Signal.data);
       if bev.Signal.cancelled then ev ~subject:(Event.Chan cid) Event.Cancel;
       if bev.Signal.retry then ev ~subject:(Event.Chan cid) Event.Stall;
       if bev.Signal.anti then ev ~subject:(Event.Chan cid) Event.Anti)
    t.channels;
  (* Buffer occupancy changes (clock edge already happened). *)
  List.iter
    (fun (nid, after) ->
       let before = Option.value ~default:0 (Hashtbl.find_opt t.occ nid) in
       if before <> after then begin
         ev ~subject:(Event.Node nid) (Event.Occupancy { before; after });
         Hashtbl.replace t.occ nid after
       end)
    (Engine.occupancies eng);
  (* Scheduler activity, from the counter deltas of the clock edge. *)
  let on =
    { Scheduler.serve =
        (fun nid way -> ev ~subject:(Event.Node nid) (Event.Serve { way }));
      replay =
        (fun nid penalty ->
           ev ~subject:(Event.Node nid) (Event.Replay { penalty }));
      mispredict =
        (fun nid way ->
           ev ~subject:(Event.Node nid) (Event.Mispredict { way }));
      change =
        (fun nid way -> ev ~subject:(Event.Node nid) (Event.Predict { way }))
    }
  in
  Array.iter (fun w -> Scheduler.poll on w ~cycle:cyc) t.scheds;
  (* Fresh monitor violations: the monitors stamp them with the elapsed
     cycle, so anything beyond the count seen so far is new. *)
  let n = Engine.violation_count eng in
  if n > t.violations_seen then begin
    List.iter
      (fun (name, (v : Protocol.violation)) ->
         if v.Protocol.cycle = cyc then
           match
             Array.find_opt
               (fun (c : Netlist.channel) ->
                  String.equal c.Netlist.ch_name name)
               t.channels
           with
           | Some c ->
             ev ~subject:(Event.Chan c.Netlist.ch_id)
               (Event.Violation { property = v.Protocol.property })
           | None -> ())
      (Engine.violations eng);
    t.violations_seen <- n
  end

let attach ?capacity eng =
  let t = create ?capacity eng in
  Engine.add_observer eng (observe t);
  t

let events t =
  if t.total <= t.cap then
    List.init t.next (fun i -> t.ring.(i))
  else
    List.init t.cap (fun i -> t.ring.((t.next + i) mod t.cap))

let dropped t = max 0 (t.total - t.cap)

let recorded t = t.total

let recent ?(limit = 10) ?channel t =
  let evs = events t in
  let evs =
    match channel with
    | None -> evs
    | Some cid ->
      List.filter
        (fun (e : Event.t) ->
           match e.Event.ev_subject with
           | Event.Chan c -> c = cid
           | Event.Node _ -> false)
        evs
  in
  let n = List.length evs in
  if n <= limit then evs else List.filteri (fun i _ -> i >= n - limit) evs
