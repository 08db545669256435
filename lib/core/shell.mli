open Elastic_netlist

(** Command interpreter of the design-exploration shell (§5).

    The paper's toolkit lets the user apply correct-by-construction
    transformations "under the user guidance in the form of command
    scripts within an interactive shell", visualize the graph, undo and
    redo, export Verilog/SMV models and report throughput and cycle time.
    This module is that interpreter; [bin/elastic_shell] wraps it in a
    REPL.  Type [help] for the command list. *)

type session

val create : unit -> session

(** [execute s line] parses and runs one command.  [Ok output] is the text
    to display; [Error message] reports a parse or application failure
    (the design state is unchanged on error).  Never raises: exceptions
    escaping a command — including [Engine.Simulation_error] — are
    rendered into the [Error] message. *)
val execute : session -> string -> (string, string) result

(** Run a whole script.  By default it stops at the first error, with
    the error message prefixed by the 1-based line number of the
    offending command.  After an [on-error continue] directive in the
    script, failing lines are instead reported inline in the output
    (with the same line-number provenance, prefixed ["error:"]) and
    execution continues; [on-error abort] restores the default. *)
val run_script : session -> string list -> (string list, string) result

(** The current design (for tests and embedding). *)
val current : session -> Netlist.t option

val help : string

(** Every first word the interpreter dispatches on, in help order.  The
    help-coverage test checks each appears in {!help} and is accepted by
    {!execute} (i.e. never answers "unknown command"), so the command
    surface and the help text cannot drift apart. *)
val commands : string list

(** The bundled designs that [load] accepts, by name, in help order. *)
val designs : (string * (unit -> Netlist.t)) list
