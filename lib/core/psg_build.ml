open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg

(* PSG construction is split into two passes so the expensive part scales
   with cores:

   - a {e local pass}, run per routine (in parallel when a pool is given):
     node and edge discovery and the Figure-6 dataflow that labels
     flow-summary edges (one solve per sink block) — everything that reads
     only the routine's own CFG and DEF/UBD sets.  Ids produced here are
     routine-local: nodes and calls in block order, edges grouped by
     source node;

   - a short sequential {e stitch pass}: routine-local ids are offset by
     per-routine prefix sums into the global node/edge/call lanes, and the
     call and node-list rows are read off the kinds.  The reverse
     relations (in-edges, callers) are left to each run's {!Readers}.

   Because the local pass numbers everything in an order fixed by the
   routine's own CFG, and the stitch pass concatenates routines in program
   order, the resulting PSG is bit-identical whatever the parallelism
   degree. *)

(* A source's paths begin either at the start of a block (entry and return
   nodes) or at the dispatch of a block's terminating multiway branch
   (branch nodes), i.e. after the block's own instructions. *)
type source_mode = At_block_start | After_block

type source = { src_node : int; src_block : int; mode : source_mode }

type local = {
  l_kinds : int array;  (* routine-local node id -> packed kind, routine 0 *)
  l_src : int array;  (* routine-local edge id -> local node id, ascending *)
  l_dst : int array;
  l_labels : Regset.t array;  (* 3 sets per edge *)
  l_call_def : Regset.t array;  (* local call index -> its own definitions *)
  l_call_use : Regset.t array;
  l_callee : Insn.callee array;  (* local call index -> its instruction's callee *)
  l_target_off : int array;  (* local call index -> row start; calls + 1 *)
  l_targets : int array;  (* routine index, or -1 - k for l_externals.(k) *)
  l_externals : Psg.external_class array;
}

(* First-use interning: [index x] is [x]'s position among the distinct
   values ([equal]) indexed so far, and [seen ()] lists them in that
   order.  Tables of external classes are a handful of entries long. *)
let interner equal =
  let seen = ref [] and count = ref 0 in
  let index x =
    let rec find i = function
      | [] ->
          seen := x :: !seen;
          incr count;
          !count - 1
      | y :: rest -> if equal x y then i else find (i - 1) rest
    in
    find (!count - 1) !seen
  in
  (index, fun () -> List.rev !seen)

(* --- Local pass --------------------------------------------------------- *)

let local_pass ~branch_nodes ~resolve_targets _ (cfg : Cfg.t) defuse =
  let nblocks = Cfg.block_count cfg in
  let kinds = Vec.create () in
  let call_def = Vec.create () and call_use = Vec.create () and callees = Vec.create () in
  let target_off = Vec.create () and targets = Vec.create () in
  (* An external class is interned per fragment, by physical identity: a
     resolution environment hands out one record per name. *)
  let external_index, externals = interner ( == ) in
  Vec.push target_off 0;
  let new_node tag block =
    let id = Vec.length kinds in
    Vec.push kinds (Psg.Kind.pack ~tag ~block);
    id
  in
  (* --- Nodes and cut points ------------------------------------------- *)
  (* Block id -> its sink node, or -1: the cut blocks. *)
  let sink_of_block = Array.make nblocks (-1) in
  let sources = ref [] in
  for position = 0 to Cfg.entry_count cfg - 1 do
    let node = new_node Psg.Kind.entry position in
    sources :=
      { src_node = node; src_block = Cfg.entry_block cfg position; mode = At_block_start }
      :: !sources
  done;
  for b = 0 to nblocks - 1 do
    match Cfg.ending cfg b with
    | Ends_ret -> sink_of_block.(b) <- new_node Psg.Kind.exit b
    | Ends_jump_unknown -> sink_of_block.(b) <- new_node Psg.Kind.unknown_exit b
    | Ends_call ->
        (* A call falls through, so validation guarantees a unique
           successor: the return point. *)
        assert (Cfg.succ_count cfg b = 1);
        let return_block = Cfg.return_block cfg b in
        let call_node = new_node Psg.Kind.call b in
        let return_node = new_node Psg.Kind.return return_block in
        sink_of_block.(b) <- call_node;
        sources :=
          { src_node = return_node; src_block = return_block; mode = At_block_start }
          :: !sources;
        let call_insn = cfg.routine.Routine.insns.(Cfg.last cfg b) in
        let callee = Cfg.callee cfg b in
        Vec.push call_def (Insn.defs call_insn);
        Vec.push call_use (Insn.uses call_insn);
        Vec.push callees callee;
        Option.iter
          (List.iter (function
            | Psg.Target_routine t -> Vec.push targets t
            | Psg.Target_external c -> Vec.push targets (-1 - external_index c)))
          (resolve_targets callee);
        Vec.push target_off (Vec.length targets)
    | Ends_switch when branch_nodes ->
        let node = new_node Psg.Kind.branch b in
        sink_of_block.(b) <- node;
        sources := { src_node = node; src_block = b; mode = After_block } :: !sources
    | Ends_switch | Ends_plain -> ()
  done;
  (* --- Flow-summary edges ---------------------------------------------- *)
  let sources = Array.of_list (List.rev !sources) in
  let is_cut b = sink_of_block.(b) >= 0 in
  (* Forward reach from each source, stopping at cut blocks: one flow per
     sink block reached, recorded as the flow's source index and sink
     block, in depth-first discovery order.  The stamp visits each block
     once per source, so no sink is found twice; the search is iterative,
     with an explicit stack of (block, next successor). *)
  let flow_source = Vec.create () and flow_sink = Vec.create () in
  let fwd_stamp = Array.make nblocks (-1) in
  let stack_block = Array.make nblocks 0 and stack_next = Array.make nblocks 0 in
  (* Discovers [b] from source [i]; true when the search continues into
     [b]'s successors. *)
  let discover i b =
    if fwd_stamp.(b) = i then false
    else begin
      fwd_stamp.(b) <- i;
      if is_cut b then begin
        Vec.push flow_source i;
        Vec.push flow_sink b;
        false
      end
      else true
    end
  in
  let reach_from i root =
    if discover i root then begin
      stack_block.(0) <- root;
      stack_next.(0) <- Cfg.succ_start cfg root;
      let sp = ref 0 in
      while !sp >= 0 do
        let k = stack_next.(!sp) in
        if k < Cfg.succ_stop cfg stack_block.(!sp) then begin
          stack_next.(!sp) <- k + 1;
          let succ = Cfg.succ_at cfg k in
          if discover i succ then begin
            incr sp;
            stack_block.(!sp) <- succ;
            stack_next.(!sp) <- Cfg.succ_start cfg succ
          end
        end
        else decr sp
      done
    end
  in
  Array.iteri
    (fun i source ->
      match source.mode with
      | At_block_start -> reach_from i source.src_block
      | After_block -> Cfg.iter_succs (reach_from i) cfg source.src_block)
    sources;
  let nflows = Vec.length flow_source in
  (* The flows into each sink block, CSR by sink block: flows
     [into_sink.(into_off.(b)) .. into_sink.(into_off.(b + 1) - 1)] end
     at block [b]. *)
  let into_off, into_sink =
    Scc.csr nblocks (fun edge -> Vec.iteri (fun f b -> edge b f) flow_sink)
  in
  (* One Figure-6 solve per distinct sink block, over the sink's backward
     region; every edge into that sink reads its label off the shared
     solution (see Edge_dataflow for why the labels are the per-edge
     ones).  Labels land in [flow_labels], three sets per flow, so edges
     are emitted in discovery order below, whatever order the sinks are
     solved in. *)
  let flow_labels = Array.make (3 * nflows) Regset.empty in
  let scratch = Edge_dataflow.create_scratch cfg in
  (* An entry or return node sits at the start of its block.  A branch
     node sits after the block's instructions: its label merges the IN
     sets of the dispatch targets inside the region. *)
  let label_at solution source =
    match source.mode with
    | At_block_start -> Edge_dataflow.in_of solution source.src_block
    | After_block ->
        Cfg.fold_succs
          (fun acc succ ->
            if Edge_dataflow.mem solution succ then
              Edge_dataflow.join acc (Edge_dataflow.in_of solution succ)
            else acc)
          Edge_dataflow.top_must cfg source.src_block
  in
  for sink = 0 to nblocks - 1 do
    if into_off.(sink + 1) > into_off.(sink) then begin
      let solution = Edge_dataflow.solve ~scratch ~cfg ~defuse ~is_cut ~sink () in
      for k = into_off.(sink) to into_off.(sink + 1) - 1 do
        let f = into_sink.(k) in
        let label = label_at solution sources.(Vec.get flow_source f) in
        flow_labels.(3 * f) <- label.may_use;
        flow_labels.((3 * f) + 1) <- label.may_def;
        flow_labels.((3 * f) + 2) <- label.must_def
      done
    end
  done;
  (* Edges are numbered by source node: a call node's only out-edge is its
     call-return edge, and a source's flows follow in discovery order.
     Sources are discovered in ascending node order, so each source's
     flows are one run of the discovery order, starting at
     [flow_start.(i)]. *)
  let nsources = Array.length sources in
  let flow_start = Array.make (nsources + 1) 0 in
  Vec.iter (fun i -> flow_start.(i + 1) <- flow_start.(i + 1) + 1) flow_source;
  for i = 0 to nsources - 1 do
    flow_start.(i + 1) <- flow_start.(i) + flow_start.(i + 1)
  done;
  let nnodes = Vec.length kinds in
  let source_of_node = Array.make nnodes (-1) in
  Array.iteri (fun i source -> source_of_node.(source.src_node) <- i) sources;
  let nedges = Vec.length call_def + nflows in
  let l_src = Array.make nedges 0 and l_dst = Array.make nedges 0 in
  let l_labels = Array.make (3 * nedges) Regset.empty in
  let start = Edge_dataflow.top_must in
  let e = ref 0 in
  for n = 0 to nnodes - 1 do
    if Psg.Kind.tag (Vec.get kinds n) = Psg.Kind.call then begin
      l_src.(!e) <- n;
      l_dst.(!e) <- n + 1;
      l_labels.(3 * !e) <- start.may_use;
      l_labels.((3 * !e) + 1) <- start.may_def;
      l_labels.((3 * !e) + 2) <- start.must_def;
      incr e
    end
    else
      let i = source_of_node.(n) in
      if i >= 0 then
        for f = flow_start.(i) to flow_start.(i + 1) - 1 do
          l_src.(!e) <- n;
          l_dst.(!e) <- sink_of_block.(Vec.get flow_sink f);
          Array.blit flow_labels (3 * f) l_labels (3 * !e) 3;
          incr e
        done
  done;
  {
    l_kinds = Vec.to_array kinds;
    l_src;
    l_dst;
    l_labels;
    l_call_def = Vec.to_array call_def;
    l_call_use = Vec.to_array call_use;
    l_callee = Vec.to_array callees;
    l_target_off = Vec.to_array target_off;
    l_targets = Vec.to_array targets;
    l_externals = Array.of_list (externals ());
  }

(* --- Target resolution --------------------------------------------------- *)

(* §3.5: a call target resolves to a routine of the image, to external
   code with a supplied summary, or to nothing (the calling-standard
   assumption). *)
let resolver ~externals program =
  let resolve_name name =
    match Program.find_index program name with
    | Some i -> Some (Psg.Target_routine i)
    | None -> (
        match externals name with
        | Some c -> Some (Psg.Target_external c)
        | None -> None)
  in
  fun callee ->
    match callee with
    | Insn.Direct name -> Option.map (fun t -> [ t ]) (resolve_name name)
    | Insn.Indirect (_, None) | Insn.Indirect (_, Some []) -> None
    | Insn.Indirect (_, Some names) ->
        let resolved = List.map resolve_name names in
        if List.exists Option.is_none resolved then None
        else Some (List.filter_map Fun.id resolved)

(* --- Stitch pass -------------------------------------------------------- *)

type part = Local of local | Rows of Psg.t * int

(* One routine's rows wherever they live: a fragment's own arrays, or a
   routine's window of a stitched PSG.  Node ids read in [dst] and
   [call_node] are shifted by [node_base], target rows by [target_base];
   kinds may carry a routine, which the stitch replaces. *)
type view = {
  v_kinds : int array;
  n0 : int;  (* first node in [v_kinds] *)
  nn : int;
  node_base : int;
  v_out : out_rows;
  v_dst : int array;
  v_labels : Regset.t array;
  e0 : int;  (* first edge *)
  ne : int;
  v_call_def : Regset.t array;
  v_call_use : Regset.t array;
  v_callee : Insn.callee array;
  v_target_off : int array;
  c0 : int;  (* first call *)
  nc : int;
  target_base : int;
  v_targets : int array;
  v_externals : Psg.external_class array;
  cr_edges : int array option;
      (* a PSG window's call-return edges, relative to [e0], whose labels
         phase 1 has overwritten; a fragment's hold the start value *)
}

(* Where a view's out-degrees come from: a fragment's per-edge sources,
   or a PSG's out-edge offsets. *)
and out_rows = Sources of int array | Offsets of int array

let view = function
  | Local l ->
      {
        v_kinds = l.l_kinds;
        n0 = 0;
        nn = Array.length l.l_kinds;
        node_base = 0;
        v_out = Sources l.l_src;
        v_dst = l.l_dst;
        v_labels = l.l_labels;
        e0 = 0;
        ne = Array.length l.l_src;
        v_call_def = l.l_call_def;
        v_call_use = l.l_call_use;
        v_callee = l.l_callee;
        v_target_off = l.l_target_off;
        c0 = 0;
        nc = Array.length l.l_call_def;
        target_base = 0;
        v_targets = l.l_targets;
        v_externals = l.l_externals;
        cr_edges = None;
      }
  | Rows ((p : Psg.t), r) ->
      let n0 = p.first_node.(r) and e0 = p.first_edge.(r) and c0 = p.first_call.(r) in
      let nc = p.first_call.(r + 1) - c0 in
      {
        v_kinds = p.kinds;
        n0;
        nn = p.first_node.(r + 1) - n0;
        node_base = n0;
        v_out = Offsets p.out_off;
        v_dst = p.dst;
        v_labels = p.labels;
        e0;
        ne = p.first_edge.(r + 1) - e0;
        v_call_def = p.call_def;
        v_call_use = p.call_use;
        v_callee = p.callee;
        v_target_off = p.target_off;
        c0;
        nc;
        target_base = p.target_off.(c0);
        v_targets = p.targets;
        v_externals = p.externals;
        cr_edges = Some (Array.init nc (fun k -> Psg.cr_edge p (c0 + k) - e0));
      }

(* Adds the view's out-degrees at [out_off.(noff + j + 1)] for its node
   [j]: the stitch's prefix sum turns them into offsets. *)
let add_out_degrees v out_off noff =
  match v.v_out with
  | Sources src ->
      Array.iter (fun j -> out_off.(noff + j + 1) <- out_off.(noff + j + 1) + 1) src
  | Offsets off ->
      for j = 0 to v.nn - 1 do
        out_off.(noff + j + 1) <- off.(v.n0 + j + 1) - off.(v.n0 + j)
      done

let target_count v = v.v_target_off.(v.c0 + v.nc) - v.target_base

(* Every fragment's call-return labels start at the local pass's value. *)
let reset_cr_labels v labels eoff =
  let start = Edge_dataflow.top_must in
  Option.iter
    (Array.iter (fun e ->
         let l = 3 * (eoff + e) in
         labels.(l) <- start.may_use;
         labels.(l + 1) <- start.may_def;
         labels.(l + 2) <- start.must_def))
    v.cr_edges

let prefix_sums views count =
  let n = Array.length views in
  let offsets = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    offsets.(r + 1) <- offsets.(r) + count views.(r)
  done;
  offsets

(* The graph's shape: everything [Sched.make] reads.  Two fragments of the
   same topology stitch, at the same offsets, into PSGs with identical
   edges, call and target rows and entry/exit/unknown-exit rows, and so
   identical readers; only kinds' block ids, flow labels and the call
   instructions' own effects and callees may differ. *)
let same_topology (a : local) (b : local) =
  let same_array eq x y = Array.length x = Array.length y && Array.for_all2 eq x y in
  same_array (fun x y -> Psg.Kind.tag x = Psg.Kind.tag y) a.l_kinds b.l_kinds
  && same_array Int.equal a.l_src b.l_src
  && same_array Int.equal a.l_dst b.l_dst
  && same_array Int.equal a.l_target_off b.l_target_off
  && same_array Int.equal a.l_targets b.l_targets
  && a.l_externals = b.l_externals

let stitch_parts ?topology ~entry_filters program parts =
  let nroutines = Program.routine_count program in
  if Array.length parts <> nroutines then
    invalid_arg "Psg_build.stitch: locals length mismatch";
  if Array.length entry_filters <> nroutines then
    invalid_arg "Psg_build.stitch: entry_filters length mismatch";
  let views = Array.map view parts in
  (* Prefix sums assign every routine its contiguous global id ranges. *)
  let first_node = prefix_sums views (fun v -> v.nn) in
  let first_edge = prefix_sums views (fun v -> v.ne) in
  let first_call = prefix_sums views (fun v -> v.nc) in
  let nnodes = first_node.(nroutines) and nedges = first_edge.(nroutines) in
  let ncalls = first_call.(nroutines) in
  let kinds = Array.make nnodes 0 in
  let labels = Array.make (3 * nedges) Regset.empty in
  let call_def = Array.make ncalls Regset.empty and call_use = Array.make ncalls Regset.empty in
  let callee = Array.make ncalls (Insn.Direct "") in
  Array.iteri
    (fun r v ->
      let noff = first_node.(r) and eoff = first_edge.(r) and coff = first_call.(r) in
      for j = 0 to v.nn - 1 do
        kinds.(noff + j) <- Psg.Kind.in_routine r v.v_kinds.(v.n0 + j)
      done;
      (* A copy, never the source's own array: phase 1 writes the
         call-return labels in place. *)
      Array.blit v.v_labels (3 * v.e0) labels (3 * eoff) (3 * v.ne);
      reset_cr_labels v labels eoff;
      Array.blit v.v_call_def v.c0 call_def coff v.nc;
      Array.blit v.v_call_use v.c0 call_use coff v.nc;
      Array.blit v.v_callee v.c0 callee coff v.nc)
    views;
  let psg (shape : Psg.t) =
    {
      shape with
      Psg.program;
      kinds;
      sets = Array.make (3 * nnodes) Regset.empty;
      live = Array.make nnodes Regset.empty;
      labels;
      call_def;
      call_use;
      callee;
      entry_filter = entry_filters;
    }
  in
  match topology with
  | Some old ->
      (* The caller vouches that every fragment has the topology of
         [old]'s routine at its index, so the shape lanes are [old]'s:
         nothing writes them after a stitch. *)
      psg old
  | None ->
      let dst = Array.make nedges 0 and out_off = Array.make (nnodes + 1) 0 in
      let first_target = prefix_sums views target_count in
      let targets = Array.make first_target.(nroutines) 0 in
      let target_off = Array.make (ncalls + 1) first_target.(nroutines) in
      (* The PSG's external table concatenates the parts' tables, each
         once: PSG windows share theirs. *)
      let tables = ref [] and nexternals = ref 0 in
      let external_base v =
        match List.assq_opt v.v_externals !tables with
        | Some base -> base
        | None ->
            let base = !nexternals in
            tables := (v.v_externals, base) :: !tables;
            nexternals := base + Array.length v.v_externals;
            base
      in
      Array.iteri
        (fun r v ->
          let noff = first_node.(r) and eoff = first_edge.(r) and coff = first_call.(r) in
          let shift = noff - v.node_base in
          for j = 0 to v.ne - 1 do
            dst.(eoff + j) <- shift + v.v_dst.(v.e0 + j)
          done;
          add_out_degrees v out_off noff;
          let toff = first_target.(r) - v.target_base in
          for k = 0 to v.nc - 1 do
            target_off.(coff + k) <- toff + v.v_target_off.(v.c0 + k)
          done;
          let xbase = if Array.length v.v_externals = 0 then 0 else external_base v in
          for i = 0 to target_count v - 1 do
            let x = v.v_targets.(v.target_base + i) in
            targets.(first_target.(r) + i) <- (if x >= 0 then x else x - xbase)
          done)
        views;
      let externals = Array.concat (List.rev_map fst !tables) in
      (* Edges are numbered by source and routines laid out in order, so
         the out-degrees' prefix sum is the out-edge offsets. *)
      for n = 0 to nnodes - 1 do
        out_off.(n + 1) <- out_off.(n) + out_off.(n + 1)
      done;
      (* Calls, entries, exits and unknown exits are read off the kinds:
         nodes lie routine by routine, so each list is one CSR row per
         routine, in node order. *)
      let call_node = Array.make ncalls 0 in
      let rows tag =
        let off = Array.make (nroutines + 1) 0 and ids = Vec.create () in
        for r = 0 to nroutines - 1 do
          for n = first_node.(r) to first_node.(r + 1) - 1 do
            if Psg.Kind.tag kinds.(n) = tag then Vec.push ids n
          done;
          off.(r + 1) <- Vec.length ids
        done;
        (off, Vec.to_array ids)
      in
      let c = ref 0 in
      Array.iteri
        (fun n k ->
          if Psg.Kind.tag k = Psg.Kind.call then begin
            call_node.(!c) <- n;
            incr c
          end)
        kinds;
      let entries_off, entry_nodes = rows Psg.Kind.entry in
      let exits_off, exit_nodes = rows Psg.Kind.exit in
      let unknown_off, unknown_exit_nodes = rows Psg.Kind.unknown_exit in
      psg
        {
          Psg.program;
          kinds;
          sets = [||];
          live = [||];
          dst;
          labels;
          out_off;
          call_node;
          call_def;
          call_use;
          callee;
          target_off;
          targets;
          externals;
          entries_off;
          entry_nodes;
          exits_off;
          exit_nodes;
          unknown_off;
          unknown_exit_nodes;
          first_node;
          first_edge;
          first_call;
          entry_filter = entry_filters;
        }

let stitch ?topology ~entry_filters program locals =
  stitch_parts ?topology ~entry_filters program (Array.map (fun l -> Local l) locals)

(* --- Fragments of a stitched PSG ----------------------------------------- *)

(* The inverse of [stitch] for one routine: its rows with the offsets
   subtracted, its external classes re-interned in first-use order, and
   its call-return labels back at the local pass's start value. *)
let fragment (psg : Psg.t) r =
  let v = view (Rows (psg, r)) in
  let l_labels = Array.sub psg.labels (3 * v.e0) (3 * v.ne) in
  reset_cr_labels v l_labels 0;
  let local_external, used = interner Int.equal in
  let l_targets =
    Array.init (target_count v) (fun i ->
        let x = psg.targets.(v.target_base + i) in
        if x >= 0 then x else -1 - local_external x)
  in
  let l_src = Array.make v.ne 0 in
  for j = 0 to v.nn - 1 do
    for e = psg.out_off.(v.n0 + j) to psg.out_off.(v.n0 + j + 1) - 1 do
      l_src.(e - v.e0) <- j
    done
  done;
  {
    l_kinds = Array.init v.nn (fun j -> Psg.Kind.local psg.kinds.(v.n0 + j));
    l_src;
    l_dst = Array.init v.ne (fun j -> psg.dst.(v.e0 + j) - v.n0);
    l_labels;
    l_call_def = Array.sub psg.call_def v.c0 v.nc;
    l_call_use = Array.sub psg.call_use v.c0 v.nc;
    l_callee = Array.sub psg.callee v.c0 v.nc;
    l_target_off = Array.init (v.nc + 1) (fun k -> psg.target_off.(v.c0 + k) - v.target_base);
    l_targets;
    l_externals = Array.of_list (List.map (fun x -> psg.externals.(-1 - x)) (used ()));
  }

(* --- The one-shot builder ------------------------------------------------ *)

let build ?(branch_nodes = true) ?entry_filters ?(externals = Psg.no_externals) ?pool
    program cfgs defuses =
  let nroutines = Program.routine_count program in
  let resolve_targets = resolver ~externals program in
  let pinit n f =
    match pool with Some p -> Pool.parallel_init p n f | None -> Array.init n f
  in
  let locals =
    pinit nroutines (fun r ->
        Spike_obs.Trace.with_span "psg.local_pass" (fun () ->
            local_pass ~branch_nodes ~resolve_targets r cfgs.(r) defuses.(r)))
  in
  let entry_filters =
    match entry_filters with
    | Some filters ->
        if Array.length filters <> nroutines then
          invalid_arg "Psg_build.build: entry_filters length mismatch";
        filters
    | None ->
        pinit nroutines (fun r ->
            Callee_saved.saved_and_restored (Program.get program r) cfgs.(r))
  in
  Spike_obs.Trace.with_span "psg.stitch" @@ fun () ->
  stitch ~entry_filters program locals
