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

let apply_block ~def ~ubd out =
  {
    may_use = Regset.union ubd (Regset.diff out.may_use def);
    may_def = Regset.union out.may_def def;
    must_def = Regset.union out.must_def def;
  }

(* A routine's sinks are solved one after another over regions of the
   same CFG, so every array is preallocated at routine size and reused
   across sinks.  A generation stamp both marks region membership while
   the region is collected and invalidates the previous sink's entries
   without an O(blocks) reset.  The CFG keeps no predecessor lane, so the
   scratch holds the routine's predecessor rows, built once for all its
   sinks.

   A region block's slot is its postorder number in the depth-first
   search over predecessors that collects the region, so the sink, the
   search's root, holds the last slot.  Sweeping slots downward visits
   the reverse postorder of the reversed region: every block comes after
   each region successor whose arc is not a back arc of the search. *)
type solution = {
  cfg : Cfg.t;  (* the routine the scratch serves *)
  pred_off : int array;  (* its predecessor rows (Cfg.pred_rows) *)
  pred_adj : int array;
  order : int array;  (* slot -> block *)
  position : int array;  (* block -> slot; valid iff stamp.(b) = gen *)
  stamp : int array;
  mutable gen : int;
  read_early : int array;  (* slot -> last sweep that read it before updating it *)
  mutable sweep_id : int;
  stack_block : int array;  (* the search's stack: block and its next pred_adj slot *)
  stack_next : int array;
  (* IN sets of the current region, one lane per set, indexed by slot. *)
  may_use_in : Regset.t array;
  may_def_in : Regset.t array;
  must_def_in : Regset.t array;
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

let create_scratch cfg =
  let nblocks = Cfg.block_count cfg in
  let n = max nblocks 1 in
  let pred_off = Array.make (nblocks + 1) 0 in
  let pred_adj = Array.make (Cfg.arc_count cfg) 0 in
  Cfg.pred_rows cfg ~off:pred_off ~adj:pred_adj;
  {
    cfg;
    pred_off;
    pred_adj;
    order = Array.make n 0;
    position = Array.make n 0;
    stamp = Array.make n 0;
    gen = 0;
    read_early = Array.make n 0;
    sweep_id = 0;
    stack_block = Array.make n 0;
    stack_next = Array.make n 0;
    may_use_in = Array.make n Regset.empty;
    may_def_in = Array.make n Regset.empty;
    must_def_in = Array.make n Regset.full;
  }

(* The sink's backward region: the sink plus every block reaching it
   without passing through a cut.  One iterative depth-first search over
   predecessors, with the stamp as the visited mark, numbers the region's
   blocks in postorder and starts each slot's lanes at [top_must]; returns
   the region's size.  Costs O(region blocks + their predecessor arcs). *)
let collect_region s ~is_cut ~sink =
  let gen = s.gen and stamp = s.stamp and order = s.order and position = s.position in
  let stack_block = s.stack_block and stack_next = s.stack_next in
  let pred_off = s.pred_off and pred_adj = s.pred_adj in
  stamp.(sink) <- gen;
  stack_block.(0) <- sink;
  stack_next.(0) <- pred_off.(sink);
  let sp = ref 0 and n = ref 0 in
  while !sp >= 0 do
    let b = stack_block.(!sp) in
    let k = stack_next.(!sp) in
    if k < pred_off.(b + 1) then begin
      stack_next.(!sp) <- k + 1;
      let p = pred_adj.(k) in
      if stamp.(p) <> gen && not (is_cut p) then begin
        stamp.(p) <- gen;
        incr sp;
        stack_block.(!sp) <- p;
        stack_next.(!sp) <- pred_off.(p)
      end
    end
    else begin
      let slot = !n in
      order.(slot) <- b;
      position.(b) <- slot;
      s.may_use_in.(slot) <- Regset.empty;
      s.may_def_in.(slot) <- Regset.empty;
      s.must_def_in.(slot) <- Regset.full;
      n := slot + 1;
      decr sp
    end
  done;
  !n

let solve ?scratch ~cfg ~defuse ~is_cut ~sink () =
  let s =
    match scratch with
    | Some s ->
        if s.cfg != cfg then invalid_arg "Edge_dataflow.solve: scratch of another CFG";
        s
    | None -> create_scratch cfg
  in
  s.gen <- s.gen + 1;
  let size = collect_region s ~is_cut ~sink in
  let gen = s.gen in
  let order = s.order and position = s.position and stamp = s.stamp in
  let use_in = s.may_use_in and def_in = s.may_def_in and must_in = s.must_def_in in
  (* The sink's OUT sets are the boundary, so its IN sets are final at
     once. *)
  let top = size - 1 in
  let def = Defuse.def defuse sink in
  use_in.(top) <- Defuse.ubd defuse sink;
  def_in.(top) <- def;
  must_in.(top) <- def;
  (* Sweep the other slots downward.  A block whose meet reads a region
     successor at or below its own slot reads the value of the previous
     sweep (or the initial [top_must]), not yet recomputed in this one;
     every other read sees this sweep's final value.  A sweep is
     therefore the fixpoint unless some slot it updated had been read
     before its update.  In an acyclic region no block reads early, so
     the first sweep is the fixpoint. *)
  let read_early = s.read_early in
  (* The sink's IN sets, set above, count as one update. *)
  let sweeps = ref 0 and updates = ref 1 in
  let again = ref true in
  while !again do
    incr sweeps;
    s.sweep_id <- s.sweep_id + 1;
    let sweep = s.sweep_id in
    again := false;
    for i = top - 1 downto 0 do
      let b = order.(i) in
      (* Every non-sink region block was collected as a predecessor of a
         region block, so the meet has at least one operand. *)
      let u = ref Regset.empty and d = ref Regset.empty and m = ref Regset.full in
      for k = Cfg.succ_start cfg b to Cfg.succ_stop cfg b - 1 do
        let succ = Cfg.succ_at cfg k in
        if stamp.(succ) = gen then begin
          let j = position.(succ) in
          if j <= i then read_early.(j) <- sweep;
          u := Regset.union !u use_in.(j);
          d := Regset.union !d def_in.(j);
          m := Regset.inter !m must_in.(j)
        end
      done;
      let def = Defuse.def defuse b in
      let u = Regset.union (Defuse.ubd defuse b) (Regset.diff !u def)
      and d = Regset.union !d def
      and m = Regset.union !m def in
      if
        not
          (Regset.equal u use_in.(i) && Regset.equal d def_in.(i)
         && Regset.equal m must_in.(i))
      then begin
        use_in.(i) <- u;
        def_in.(i) <- d;
        must_in.(i) <- m;
        incr updates;
        if read_early.(i) = sweep then again := true
      end
    done
  done;
  if Spike_obs.Metrics.enabled () then begin
    Spike_obs.Metrics.incr c_solves;
    Spike_obs.Metrics.add c_sweeps !sweeps;
    Spike_obs.Metrics.add c_block_visits (!sweeps * size);
    Spike_obs.Metrics.add c_block_updates !updates
  end;
  s

let mem sol b = b < Array.length sol.stamp && sol.stamp.(b) = sol.gen

let in_of sol b =
  if mem sol b then
    let i = sol.position.(b) in
    { may_use = sol.may_use_in.(i); may_def = sol.may_def_in.(i); must_def = sol.must_def_in.(i) }
  else invalid_arg (Printf.sprintf "Edge_dataflow.in_of: block %d not in region" b)
