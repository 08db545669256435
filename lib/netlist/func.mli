(* Bring the SELF kernel modules (Value, Signal, ...) into scope. *)
open Elastic_kernel

(** Combinational datapath functions attached to elastic blocks.

    A [Func.t] bundles the evaluation function used by the simulator with
    the delay and area figures used by the timing and area models.  Delay
    is in normalized gate-delay units; area in gate equivalents. *)

type t = {
  name : string;
  arity : int;  (** Number of data inputs. *)
  eval : Value.t list -> Value.t;
      (** The list form: one argument per input, in port order.  It does
          not check the argument count; {!apply} does. *)
  eval1 : Value.t -> Value.t;
      (** The unary entry: the function of its one argument, with no list
          built per application.  The simulator's unary stages, shared
          modules and variable-latency units call it; [Engine.create]
          checks their arity once.  A function whose arity is not 1
          raises [Invalid_argument] from it. *)
  delay : float;
  area : float;
}

(** [make ~name ~arity ~delay ~area eval] builds a function spec from its
    list form; at arity 1 its [eval1] is [fun v -> eval [ v ]].
    @raise Invalid_argument if [arity < 0] or delay/area are negative. *)
val make :
  name:string -> arity:int -> delay:float -> area:float ->
  (Value.t list -> Value.t) -> t

(** [unary ~name ~delay ~area f] builds an arity-1 function spec from its
    unary form [f]; its list form applies [f] to the element of a
    one-element list and raises [Invalid_argument] on any other length,
    with {!apply}'s message.
    @raise Invalid_argument if delay/area are negative. *)
val unary :
  name:string -> delay:float -> area:float -> (Value.t -> Value.t) -> t

(** [apply f vs] evaluates [f] and checks the argument count.
    @raise Invalid_argument on arity mismatch. *)
val apply : t -> Value.t list -> Value.t

(** Identity on one input. *)
val identity : ?delay:float -> ?area:float -> unit -> t

(** Constant function of arity 0 is not allowed on channels; [const] has
    arity 1 and ignores its input. *)
val const : ?delay:float -> ?area:float -> Value.t -> t

(** Integer addition of all inputs. *)
val add_int : ?delay:float -> ?area:float -> arity:int -> unit -> t

(** Increment an [Int] by [step]. *)
val inc : ?delay:float -> ?area:float -> step:int -> unit -> t

(** Datapath of a plain (non-elastic-control) multiplexor: inputs are
    [sel :: d0 :: ... :: d(ways-1)]; output is the selected data. *)
val select : ?delay:float -> ?area:float -> ways:int -> unit -> t

val pp : Format.formatter -> t -> unit
