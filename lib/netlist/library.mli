(** Registry of named datapath functions.

    Netlists are serializable ({!Serial}) except for the evaluation
    closures inside {!Func.t}; this registry maps function names back to
    implementations when a netlist file is loaded.  The standard functions
    ([id], [inc±k], [add], [selectN]) resolve without registration;
    applications register their own blocks once at startup. *)

(** [register f] makes [f] loadable by exact name.  Re-registering a name
    replaces the previous entry. *)
val register : Func.t -> unit

(** [resolve ~name ~arity ~delay ~area] reconstructs a function spec,
    restoring the serialized delay/area figures.  [Error _] names the
    missing function. *)
val resolve :
  name:string -> arity:int -> delay:float -> area:float ->
  (Func.t, string) result
