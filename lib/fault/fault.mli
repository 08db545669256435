open Elastic_kernel
open Elastic_netlist
open Elastic_sim

(** Fault models for adversarial robustness testing (§5.2 and beyond).

    A fault perturbs one channel wire (or one scheduler decision) during
    a window of cycles.  Faults are pure descriptions; {!plan} compiles a
    list of them once into the {!Engine.fault_schedule} the engine reads.
    Datapath corruption operates on the {e flattened bit image} of the
    payload: scalars are concatenated depth-first with [Bool] = 1 bit,
    [Int] = 8 bits and [Word] = 64 bits, which matches the SECDED(72,64)
    layout used by the resilient designs ([Tuple [Word data; Int
    check]] = bits 0..63 data, 64..71 check). *)

type kind =
  | Flip_bits of int list
      (** XOR the given flattened payload bits of any token on the wire. *)
  | Force_valid of bool
      (** Pin V+: [false] drops in-flight tokens, [true] forges one. *)
  | Force_stop of bool  (** Pin S+ (stuck-at stall / stall removal). *)
  | Force_kill of bool  (** Pin V- (forged / suppressed anti-token). *)
  | Duplicate_token
      (** Force V+ high and replay the last payload observed on the
          channel — the classic re-execution duplicate. *)
  | Mispredict of int
      (** Force the node's speculation scheduler to the given way. *)

type target = Channel of Netlist.channel_id | Node of Netlist.node_id

type t = {
  target : target;
  kind : kind;
  cycle : int;  (** First faulty cycle. *)
  duration : int;  (** Number of consecutive faulty cycles, [>= 1]. *)
}

(** {1 Constructors} *)

val flip_bit : channel:Netlist.channel_id -> cycle:int -> int -> t

val flip_bits : channel:Netlist.channel_id -> cycle:int -> int list -> t

val drop_token : channel:Netlist.channel_id -> cycle:int -> t

val duplicate_token : channel:Netlist.channel_id -> cycle:int -> t

val stuck_stall :
  channel:Netlist.channel_id -> cycle:int -> duration:int -> t

val glitch_valid : channel:Netlist.channel_id -> cycle:int -> bool -> t

(** A two-cycle control-wire glitch that provably violates the SELF
    Retry+ persistence property on the channel: force a stall (creating
    a retry state) then force V+ low on the following cycle. *)
val control_glitch : channel:Netlist.channel_id -> cycle:int -> t list

val mispredict : node:Netlist.node_id -> cycle:int -> int -> t

(** {1 Inspection} *)

(** Flattened payload width of a value in bits (see module header). *)
val value_width : Value.t -> int

(** [flip_value bits v] XORs the given flattened bits of [v]; bits
    beyond the value's width are ignored. *)
val flip_value : int list -> Value.t -> Value.t

(** Human-readable description with node/channel provenance. *)
val describe : Netlist.t -> t -> string

(** {1 Compilation} *)

type plan = Engine.fault_schedule

(** [plan net faults] has a row per cycle from the first fault to
    {!horizon}; the faults on one channel and cycle merge in list order.
    Install it with [Engine.set_faults eng (Some plan)] and step.
    @raise Invalid_argument naming a fault that cannot act: an unknown
    channel or node, a wire fault on a node, or a [Mispredict] on a
    channel, on a node that is not a shared module or with a way outside
    its ways. *)
val plan : Netlist.t -> t list -> plan

(** First cycle by which every fault window has closed. *)
val horizon : plan -> int
