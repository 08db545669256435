type t = unit -> int64

(* The stub behind [Monotonic_clock.now], declared here with its
   unboxed result so that [read_ns] takes the system clock's reading
   without boxing an [Int64], whether or not [Monotonic_clock.now] is
   inlined across libraries. *)
external monotonic_now : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let monotonic : t = Monotonic_clock.now

let read_ns t =
  if t == monotonic then Int64.to_int (monotonic_now ())
  else Int64.to_int (t ())

let ticker ~step_ns =
  let now = ref 0L in
  fun () ->
    now := Int64.add !now step_ns;
    !now

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
