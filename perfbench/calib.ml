(* Host-speed probe.  On a 2-core Xeon VM sharing its physical cores,
   identical code ran up to ~50% slower for seconds or minutes at a time
   while neighbours were busy.  A fixed chunk of benchmark-owned work is
   timed after every op, and each op's wall is divided by how much
   slower than nominal the chunks around it ran.

   The chunk is [Hashtbl.find] on a 1024-entry int table: hashing and
   polymorphic comparison in the OCaml runtime, the instruction mix the
   simulator itself is made of.  Of the kernels tried on that host
   (dependent loads over 0.5-32 MiB, independent ALU chains, a bytecode
   interpreter loop, allocation) it tracked the simulator's slowdowns
   best: a run 50% slow on the simulator read within 4% of a quiet run
   after rescaling, against 17% for ALU chains.  It allocates nothing,
   so the measured GC counters stay exact, and none of the code under
   test runs here, so a change to the simulator cannot move the probe. *)

let table =
  let t = Hashtbl.create 1024 in
  for i = 0 to 1023 do
    Hashtbl.replace t (i * 7919) i
  done;
  t

let sink = ref 0

let chunk iters =
  let acc = ref 0 in
  for k = 1 to iters do
    acc := !acc + Hashtbl.find table ((k land 1023) * 7919)
  done;
  sink := !sink + !acc

(* Nanoseconds per lookup on that 2-core Xeon VM when quiet: the
   nominal speed rescaled times refer to. *)
let nominal_ns_per_iter = 22.0

(* Time [iters] lookups; returns the slowdown against nominal (1.0 =
   nominal speed, 1.4 = the host is running 40% slow). *)
let factor iters =
  let t0 = Elastic_sim.Clock.monotonic () in
  chunk iters;
  let t1 = Elastic_sim.Clock.monotonic () in
  Elastic_sim.Clock.seconds_between t0 t1 *. 1e9
  /. float_of_int iters /. nominal_ns_per_iter

(* Rolling median over [2k+1] neighbours: one chunk hit by an interrupt
   must not rescale its op. *)
let smooth ?(k = 1) xs =
  let n = Array.length xs in
  Array.init n (fun i ->
      let lo = max 0 (i - k) and hi = min (n - 1) (i + k) in
      let w = Array.sub xs lo (hi - lo + 1) in
      Array.sort compare w;
      let m = Array.length w in
      if m mod 2 = 1 then w.(m / 2) else (w.((m / 2) - 1) +. w.(m / 2)) /. 2.0)
