(* Host-speed calibration.  The benchmark shares a host whose speed
   drifts by a quarter and more over tens of seconds (other tenants on
   the sibling hardware threads, shared caches), and that drift, not the
   program, dominated the spread of wall-clock rates between runs.  A
   fixed reference kernel, independent of the repository's libraries, is
   timed between episodes; an episode's wall times are then scaled by
   [nominal_s] over the kernel's time around that episode, i.e. expressed
   at a fixed nominal host speed.  A change to the program moves the
   episode's time but not the kernel's, so it shows in full.

   The kernel mixes what the workloads do: short-lived allocation, list
   sorting (pointer chasing), hashing into a table and integer
   arithmetic.  Its lists fit in the minor heap, so it promotes almost
   nothing and leaves the workload's major heap and [peak_heap_mb]
   alone. *)

let elements = 4_000
let rounds = 6

(* the kernel's time on the 2-vCPU host the benchmark was tuned on, in
   a typical phase: scaled figures read close to that host's wall clock *)
let nominal_s = 0.012

let table = Array.make 8192 0

let kernel () =
  let st = Random.State.make [| 42 |] in
  let acc = ref 0 in
  for r = 1 to rounds do
    let l = List.init elements (fun i -> (Random.State.int st 1_000_000, i + r)) in
    List.iter
      (fun (a, b) ->
        let k = a land 8191 in
        table.(k) <- table.(k) + b;
        acc := !acc + (a mod 7))
      (List.sort compare l)
  done;
  !acc

(* one sample: the mean of two kernel runs, in seconds *)
let sample () =
  let t = Meter.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  ignore (Sys.opaque_identity (kernel ()));
  0.5 *. Meter.since_s t
