open Spike_support
open Spike_cfg

type sets = { may_use : Regset.t; may_def : Regset.t; must_def : Regset.t }

let empty = { may_use = Regset.empty; may_def = Regset.empty; must_def = Regset.empty }
let top_must = { may_use = Regset.empty; may_def = Regset.empty; must_def = Regset.full }

let join a b =
  {
    may_use = Regset.union a.may_use b.may_use;
    may_def = Regset.union a.may_def b.may_def;
    must_def = Regset.inter a.must_def b.must_def;
  }

let sets_equal a b =
  Regset.equal a.may_use b.may_use
  && Regset.equal a.may_def b.may_def
  && Regset.equal a.must_def b.must_def

let apply_block ~def ~ubd out =
  {
    may_use = Regset.union ubd (Regset.diff out.may_use def);
    may_def = Regset.union out.may_def def;
    must_def = Regset.union out.must_def def;
  }

(* A routine's sinks are solved one after another over regions of the
   same CFG, so the region buffer, the block-to-slot map and the IN-set
   table are preallocated at routine size and reused across sinks.  A
   generation stamp both marks region membership while the region is
   collected and invalidates the previous sink's entries without an
   O(blocks) reset. *)
type solution = {
  region : int array;  (* collection worklist: the region's blocks, BFS order *)
  position : int array;  (* block id -> slot; valid iff stamp.(b) = gen *)
  stamp : int array;
  mutable gen : int;
  ins : sets array;  (* slot -> IN sets of the current region *)
}

type scratch = solution

(* Dataflow cost counters.  [solve] runs concurrently on pool domains, so
   these land in Spike_obs' per-domain cells; the counts are accumulated
   locally and flushed once per solve to keep the sweep loop free of
   instrumentation.  [edge_dataflow.solves] counts solves, i.e. distinct
   sink blocks reached by some source, not flow-summary edges: every edge
   into a sink reads its label off the sink's one solution.
   [block_visits] is sweeps times region size, summed over solves. *)
let c_solves = Spike_obs.Metrics.counter "edge_dataflow.solves"
let c_sweeps = Spike_obs.Metrics.counter "edge_dataflow.sweeps"
let c_block_visits = Spike_obs.Metrics.counter "edge_dataflow.block_visits"
let c_block_updates = Spike_obs.Metrics.counter "edge_dataflow.block_updates"

let create_scratch ~nblocks =
  let n = max nblocks 1 in
  {
    region = Array.make n 0;
    position = Array.make n 0;
    stamp = Array.make n 0;
    gen = 0;
    ins = Array.make n top_must;
  }

(* The sink's backward region: the sink plus every block reaching it
   without passing through a cut.  Collected breadth-first into
   [s.region], using the stamp as the visited mark; returns its size. *)
let collect_region s ~cfg ~is_cut ~sink =
  let gen = s.gen and stamp = s.stamp and region = s.region in
  stamp.(sink) <- gen;
  region.(0) <- sink;
  let n = ref 1 and next = ref 0 in
  while !next < !n do
    Array.iter
      (fun p ->
        if stamp.(p) <> gen && not (is_cut p) then begin
          stamp.(p) <- gen;
          region.(!n) <- p;
          incr n
        end)
      cfg.Cfg.blocks.(region.(!next)).Cfg.preds;
    incr next
  done;
  !n

let solve ?scratch ~cfg ~defuse ~rpo_position ~is_cut ~sink () =
  let s =
    match scratch with
    | Some s -> s
    | None -> create_scratch ~nblocks:(Cfg.block_count cfg)
  in
  s.gen <- s.gen + 1;
  let size = collect_region s ~cfg ~is_cut ~sink in
  (* Backward dataflow converges fastest visiting a block after its
     successors, i.e. in descending reverse-postorder position. *)
  let blocks = Array.sub s.region 0 size in
  Array.sort (fun a b -> Int.compare rpo_position.(b) rpo_position.(a)) blocks;
  let gen = s.gen in
  Array.iteri
    (fun i b ->
      s.position.(b) <- i;
      s.ins.(i) <- top_must)
    blocks;
  let position = s.position and stamp = s.stamp and ins = s.ins in
  let out_of b =
    if b = sink then empty
    else begin
      let acc = ref top_must in
      (* Every non-sink region block was collected as a predecessor of a
         region block, so it has a region successor. *)
      Array.iter
        (fun succ -> if stamp.(succ) = gen then acc := join !acc ins.(position.(succ)))
        cfg.Cfg.blocks.(b).Cfg.succs;
      !acc
    end
  in
  let sweeps = ref 0 and updates = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr sweeps;
    Array.iteri
      (fun i b ->
        let next =
          apply_block ~def:(Defuse.def defuse b) ~ubd:(Defuse.ubd defuse b) (out_of b)
        in
        if not (sets_equal next ins.(i)) then begin
          ins.(i) <- next;
          incr updates;
          changed := true
        end)
      blocks
  done;
  if Spike_obs.Metrics.enabled () then begin
    Spike_obs.Metrics.incr c_solves;
    Spike_obs.Metrics.add c_sweeps !sweeps;
    Spike_obs.Metrics.add c_block_visits (!sweeps * Array.length blocks);
    Spike_obs.Metrics.add c_block_updates !updates
  end;
  s

let mem sol b = b < Array.length sol.stamp && sol.stamp.(b) = sol.gen

let in_of sol b =
  if mem sol b then sol.ins.(sol.position.(b))
  else invalid_arg (Printf.sprintf "Edge_dataflow.in_of: block %d not in region" b)
