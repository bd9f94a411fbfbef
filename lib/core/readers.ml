open Spike_support
open Spike_ir

type t = {
  in_off : int array;
  in_edge : int array;
  in_src : int array;
  callers_off : int array;
  callers_of : int array;
}

let c_built = Spike_obs.Metrics.counter "readers.built"

let make (psg : Psg.t) =
  Spike_obs.Metrics.incr c_built;
  let n = Psg.node_count psg and dst = psg.dst and out_off = psg.out_off in
  let in_off = Array.make (n + 1) 0 in
  Array.iter (fun d -> in_off.(d + 1) <- in_off.(d + 1) + 1) dst;
  for v = 1 to n do
    in_off.(v) <- in_off.(v) + in_off.(v - 1)
  done;
  (* Edges are numbered by source, so walking the sources in order fills
     each row in ascending edge id. *)
  let fill = Array.sub in_off 0 (max n 1) in
  let m = Psg.edge_count psg in
  let in_edge = Array.make m 0 and in_src = Array.make m 0 in
  for u = 0 to n - 1 do
    for e = out_off.(u) to out_off.(u + 1) - 1 do
      let d = dst.(e) in
      let k = fill.(d) in
      in_edge.(k) <- e;
      in_src.(k) <- u;
      fill.(d) <- k + 1
    done
  done;
  let callers_off, callers_of =
    Scc.csr (Program.routine_count psg.program) (fun f ->
        Psg.iter_routine_targets psg (fun c r -> f r c))
  in
  { in_off; in_edge; in_src; callers_off; callers_of }

let callers t r =
  List.init
    (t.callers_off.(r + 1) - t.callers_off.(r))
    (fun i -> t.callers_of.(t.callers_off.(r) + i))

let iter_in t v f =
  for j = t.in_off.(v) to t.in_off.(v + 1) - 1 do
    f (Array.unsafe_get t.in_edge j) (Array.unsafe_get t.in_src j)
  done
