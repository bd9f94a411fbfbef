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
     routine-local, assigned in exactly the order the former single-loop
     builder produced them;

   - a short sequential {e stitch pass}: routine-local ids are offset by
     per-routine prefix sums into the global node/edge/call tables, and the
     caller lists are wired.

   Because the local pass numbers nodes, edges and calls in the same
   intra-routine order as the sequential builder, and the stitch pass
   concatenates routines in program order, the resulting PSG is
   bit-identical whatever the parallelism degree. *)

(* A source's paths begin either at the start of a block (entry and return
   nodes) or at the dispatch of a block's terminating multiway branch
   (branch nodes), i.e. after the block's own instructions. *)
type source_mode = At_block_start | After_block

type source = { src_node : int; src_block : int; mode : source_mode }

type local_call = {
  lc_call_node : int;  (* routine-local node id *)
  lc_return_node : int;
  lc_cr_edge : int;  (* routine-local edge id *)
  lc_callee : Insn.callee;
  lc_targets : Psg.call_target list option;
  lc_call_def : Regset.t;
  lc_call_use : Regset.t;
}

type local = {
  l_kinds : Psg.node_kind array;  (* routine-local node id -> kind *)
  l_src : int array;  (* routine-local edge id -> local node id *)
  l_dst : int array;
  l_labels : Regset.t array;  (* 3 sets per edge *)
  l_calls : local_call array;
  l_entry : int list;  (* routine-local node ids, declaration order *)
  l_exit : int list;
  l_unknown : int list;
}

(* --- Local pass --------------------------------------------------------- *)

let local_pass ~branch_nodes ~resolve_targets r (cfg : Cfg.t) defuse =
  let nblocks = Cfg.block_count cfg in
  let kinds = Vec.create () in
  let src = Vec.create () and dst = Vec.create () and labels = Vec.create () in
  let calls = Vec.create () in
  let entry = ref [] and exit_ = ref [] and unknown = ref [] in
  let new_node kind =
    let id = Vec.length kinds in
    Vec.push kinds kind;
    id
  in
  let new_edge s d (label : Edge_dataflow.sets) =
    let edge_id = Vec.length src in
    Vec.push src s;
    Vec.push dst d;
    Vec.push labels label.may_use;
    Vec.push labels label.may_def;
    Vec.push labels label.must_def;
    edge_id
  in
  (* --- Nodes and cut points ------------------------------------------- *)
  (* Block id -> its sink node, or -1: the cut blocks. *)
  let sink_of_block = Array.make nblocks (-1) in
  let sources = ref [] in
  List.iter
    (fun (label, block) ->
      let node = new_node (Psg.Entry { routine = r; label }) in
      entry := node :: !entry;
      sources := { src_node = node; src_block = block; mode = At_block_start } :: !sources)
    cfg.entry_blocks;
  for b = 0 to nblocks - 1 do
    match Cfg.ending cfg b with
    | Ends_ret ->
        let node = new_node (Psg.Exit { routine = r; block = b }) in
        exit_ := node :: !exit_;
        sink_of_block.(b) <- node
    | Ends_jump_unknown ->
        let node = new_node (Psg.Unknown_exit { routine = r; block = b }) in
        unknown := node :: !unknown;
        sink_of_block.(b) <- node
    | Ends_call ->
        (* A call falls through, so validation guarantees a unique
           successor: the return point. *)
        assert (Cfg.succ_count cfg b = 1);
        let return_block = Cfg.return_block cfg b in
        let call_node = new_node (Psg.Call { routine = r; block = b }) in
        let return_node =
          new_node (Psg.Return { routine = r; call_block = b; block = return_block })
        in
        sink_of_block.(b) <- call_node;
        sources :=
          { src_node = return_node; src_block = return_block; mode = At_block_start }
          :: !sources;
        let call_insn = cfg.routine.Routine.insns.(Cfg.last cfg b) in
        let callee = Cfg.callee cfg b in
        let cr_edge = new_edge call_node return_node Edge_dataflow.top_must in
        Vec.push calls
          {
            lc_call_node = call_node;
            lc_return_node = return_node;
            lc_cr_edge = cr_edge;
            lc_callee = callee;
            lc_targets = resolve_targets callee;
            lc_call_def = Insn.defs call_insn;
            lc_call_use = Insn.uses call_insn;
          }
    | Ends_switch when branch_nodes ->
        let node = new_node (Psg.Branch { routine = r; block = b }) in
        sink_of_block.(b) <- node;
        sources := { src_node = node; src_block = b; mode = After_block } :: !sources
    | Ends_switch | Ends_plain -> ()
  done;
  (* --- Flow-summary edges ---------------------------------------------- *)
  let sources = Array.of_list (List.rev !sources) in
  let succ_off = cfg.succ_off and succ_adj = cfg.succ_adj in
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
      stack_next.(0) <- succ_off.(root);
      let sp = ref 0 in
      while !sp >= 0 do
        let k = stack_next.(!sp) in
        if k < succ_off.(stack_block.(!sp) + 1) then begin
          stack_next.(!sp) <- k + 1;
          let succ = succ_adj.(k) in
          if discover i succ then begin
            incr sp;
            stack_block.(!sp) <- succ;
            stack_next.(!sp) <- succ_off.(succ)
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
  let scratch = Edge_dataflow.create_scratch ~nblocks in
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
  (* Flow edges follow the call-return edges, in discovery order. *)
  let flow_src = Array.init nflows (fun f -> sources.(Vec.get flow_source f).src_node) in
  let flow_dst = Array.init nflows (fun f -> sink_of_block.(Vec.get flow_sink f)) in
  {
    l_kinds = Vec.to_array kinds;
    l_src = Array.append (Vec.to_array src) flow_src;
    l_dst = Array.append (Vec.to_array dst) flow_dst;
    l_labels = Array.append (Vec.to_array labels) flow_labels;
    l_calls = Vec.to_array calls;
    l_entry = List.rev !entry;
    l_exit = List.rev !exit_;
    l_unknown = List.rev !unknown;
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

let offsets_of locals length =
  let n = Array.length locals in
  let offsets = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    offsets.(r + 1) <- offsets.(r) + length locals.(r)
  done;
  offsets

let node_offsets locals = offsets_of locals (fun l -> Array.length l.l_kinds)
let call_offsets locals = offsets_of locals (fun l -> Array.length l.l_calls)

(* The graph's shape: everything [Sched.make] reads.  Two fragments of the
   same topology stitch, at the same offsets, into PSGs with identical
   [src], [dst], adjacency, entry/exit/unknown-exit lists and caller
   lists; only kinds' block ids, flow labels and the call instructions'
   own effects may differ. *)
let same_topology (a : local) (b : local) =
  let same_array eq x y = Array.length x = Array.length y && Array.for_all2 eq x y in
  let same_kind x y =
    Psg.kind_index x = Psg.kind_index y && Psg.node_routine x = Psg.node_routine y
  in
  let same_call (x : local_call) (y : local_call) =
    x.lc_call_node = y.lc_call_node
    && x.lc_return_node = y.lc_return_node
    && x.lc_cr_edge = y.lc_cr_edge
    && x.lc_targets = y.lc_targets
  in
  same_array same_kind a.l_kinds b.l_kinds
  && same_array Int.equal a.l_src b.l_src
  && same_array Int.equal a.l_dst b.l_dst
  && same_array same_call a.l_calls b.l_calls
  && a.l_entry = b.l_entry && a.l_exit = b.l_exit && a.l_unknown = b.l_unknown

let stitch ?topology ~entry_filters program (locals : local array) =
  let nroutines = Program.routine_count program in
  if Array.length locals <> nroutines then
    invalid_arg "Psg_build.stitch: locals length mismatch";
  if Array.length entry_filters <> nroutines then
    invalid_arg "Psg_build.stitch: entry_filters length mismatch";
  (* Prefix sums assign every routine its contiguous global id ranges —
     the same ids the former single-loop builder handed out. *)
  let node_offset = node_offsets locals in
  let edge_offset = offsets_of locals (fun l -> Array.length l.l_src) in
  let call_offset = call_offsets locals in
  let nnodes = node_offset.(nroutines) in
  let nedges = edge_offset.(nroutines) in
  (* The caller vouches that every fragment has the topology of
     [topology]'s routine at its index, so the shape lanes are
     [topology]'s: nothing writes them after a stitch. *)
  let shared = Option.is_some topology in
  let kinds = Array.concat (Array.to_list (Array.map (fun l -> l.l_kinds) locals)) in
  let src = if shared then [||] else Array.make nedges 0 in
  let dst = if shared then [||] else Array.make nedges 0 in
  let labels = Array.make (3 * nedges) Regset.empty in
  let calls = Vec.create () in
  let per_routine = if shared then 0 else nroutines in
  let callers_rev = Array.make per_routine [] in
  let entry_nodes = Array.make per_routine [] in
  let exit_nodes = Array.make per_routine [] in
  let unknown_exit_nodes = Array.make per_routine [] in
  for r = 0 to nroutines - 1 do
    let local = locals.(r) in
    let noff = node_offset.(r) and eoff = edge_offset.(r) and coff = call_offset.(r) in
    if not shared then begin
      Array.iteri (fun j s -> src.(eoff + j) <- noff + s) local.l_src;
      Array.iteri (fun j d -> dst.(eoff + j) <- noff + d) local.l_dst;
      entry_nodes.(r) <- List.map (fun l -> noff + l) local.l_entry;
      exit_nodes.(r) <- List.map (fun l -> noff + l) local.l_exit;
      unknown_exit_nodes.(r) <- List.map (fun l -> noff + l) local.l_unknown
    end;
    (* A copy, never the fragment's own array: phase 1 writes the
       call-return labels in place. *)
    Array.blit local.l_labels 0 labels (3 * eoff) (Array.length local.l_labels);
    Array.iteri
      (fun k (c : local_call) ->
        let call_index = coff + k in
        Vec.push calls
          {
            Psg.call_node = noff + c.lc_call_node;
            return_node = noff + c.lc_return_node;
            cr_edge = eoff + c.lc_cr_edge;
            callee = c.lc_callee;
            targets = c.lc_targets;
            call_def = c.lc_call_def;
            call_use = c.lc_call_use;
          };
        match c.lc_targets with
        | Some resolved when not shared ->
            List.iter
              (fun target ->
                match target with
                | Psg.Target_routine t -> callers_rev.(t) <- call_index :: callers_rev.(t)
                | Psg.Target_external _ -> ())
              resolved
        | Some _ | None -> ())
      local.l_calls
  done;
  (* --- Freeze ---------------------------------------------------------- *)
  match topology with
  | Some (old : Psg.t) ->
      {
        old with
        program;
        kinds;
        sets = Array.make (3 * nnodes) Regset.empty;
        live = Array.make nnodes Regset.empty;
        labels;
        calls = Vec.to_array calls;
        entry_filter = entry_filters;
      }
  | None ->
      (* CSR adjacency by counting sort; filling in edge order keeps each
         row in ascending edge id. *)
      let out_off, out_adj = Scc.csr nnodes (fun f -> Array.iteri (fun e s -> f s e) src) in
      let in_off, in_adj = Scc.csr nnodes (fun f -> Array.iteri (fun e d -> f d e) dst) in
      {
        Psg.program;
        kinds;
        sets = Array.make (3 * nnodes) Regset.empty;
        live = Array.make nnodes Regset.empty;
        src;
        dst;
        labels;
        out_off;
        out_adj;
        in_off;
        in_adj;
        calls = Vec.to_array calls;
        callers_of = Array.map List.rev callers_rev;
        entry_nodes;
        exit_nodes;
        unknown_exit_nodes;
        entry_filter = entry_filters;
      }

(* --- Fragments of a stitched PSG ----------------------------------------- *)

(* The inverse of [stitch] for one routine: its rows with the offsets
   subtracted, and its call-return labels back at the local pass's start
   value — phase 1 has overwritten them in [psg]. *)
let fragment (psg : Psg.t) (offsets : Psg.offsets) r =
  let n0 = offsets.first_node.(r) and n1 = offsets.first_node.(r + 1) in
  let e0 = offsets.first_edge.(r) and e1 = offsets.first_edge.(r + 1) in
  let c0 = offsets.first_call.(r) and c1 = offsets.first_call.(r + 1) in
  let l_labels = Array.sub psg.labels (3 * e0) (3 * (e1 - e0)) in
  let start = Edge_dataflow.top_must in
  let l_calls =
    Array.init (c1 - c0) (fun k ->
        let c = psg.calls.(c0 + k) in
        let e = c.cr_edge - e0 in
        l_labels.(3 * e) <- start.may_use;
        l_labels.((3 * e) + 1) <- start.may_def;
        l_labels.((3 * e) + 2) <- start.must_def;
        {
          lc_call_node = c.call_node - n0;
          lc_return_node = c.return_node - n0;
          lc_cr_edge = e;
          lc_callee = c.callee;
          lc_targets = c.targets;
          lc_call_def = c.call_def;
          lc_call_use = c.call_use;
        })
  in
  let local_ids = List.map (fun id -> id - n0) in
  {
    l_kinds = Array.sub psg.kinds n0 (n1 - n0);
    l_src = Array.init (e1 - e0) (fun j -> psg.src.(e0 + j) - n0);
    l_dst = Array.init (e1 - e0) (fun j -> psg.dst.(e0 + j) - n0);
    l_labels;
    l_calls;
    l_entry = local_ids psg.entry_nodes.(r);
    l_exit = local_ids psg.exit_nodes.(r);
    l_unknown = local_ids psg.unknown_exit_nodes.(r);
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
