open Spike_support
open Spike_isa

(* Compose the call instruction's own effect with a callee summary: the
   caller observes the call's definitions first (they shadow callee uses),
   then the callee's summary. *)
let fold_call_effect ~call_def ~call_use ~may_use ~may_def ~must_def =
  ( Regset.union call_use (Regset.diff may_use call_def),
    Regset.union call_def may_def,
    Regset.union call_def must_def )

let unknown_assumption ~call_def ~call_use =
  fold_call_effect ~call_def ~call_use
    ~may_use:Calling_standard.unknown_call_used
    ~may_def:Calling_standard.unknown_call_killed
    ~must_def:Calling_standard.unknown_call_defined

(* Observability: the driver's iteration, push and per-kind pop
   counters and its span ({!Sched.probes}), and the call-return label
   updates.  All counters accumulate in per-domain cells. *)
let probes = Sched.probes "phase1"
let c_cr_updates = Spike_obs.Metrics.counter "phase1.cr_edge_updates"

(* Node [i]'s triple lives at [3i] of [Psg.t.sets], edge [e]'s label at
   [3e] of [Psg.t.labels]. *)
let set3 (a : Regset.t array) i x y z =
  let o = 3 * i in
  a.(o) <- x;
  a.(o + 1) <- y;
  a.(o + 2) <- z

(* A node's cold sets; whether its equation must run.  Exit and
   unknown-exit nodes have no out-edges: their cold sets are final. *)
let cold_init (psg : Psg.t) id =
  let tag = Psg.tag psg id in
  if tag = Psg.Kind.exit then begin
    set3 psg.sets id Regset.empty Regset.empty Regset.empty;
    false
  end
  else if tag = Psg.Kind.unknown_exit then begin
    (* All bets are off past an unknown jump: everything may be used and
       clobbered, nothing is guaranteed defined. *)
    set3 psg.sets id Calling_standard.unknown_jump_live Calling_standard.all_allocatable
      Regset.empty;
    false
  end
  else begin
    set3 psg.sets id Regset.empty Regset.empty Regset.full;
    true
  end

let cold_cr_init (psg : Psg.t) c =
  let call_def = psg.call_def.(c) and call_use = psg.call_use.(c) in
  if Psg.resolved psg c then
    (* Nothing known about the callee yet: only the call's own effect.
       MUST-DEF starts at top and shrinks. *)
    set3 psg.labels (Psg.cr_edge psg c) call_use call_def Regset.full
  else
    let may_use, may_def, must_def = unknown_assumption ~call_def ~call_use in
    set3 psg.labels (Psg.cr_edge psg c) may_use may_def must_def

(* Recompute node [id]'s three sets from its outgoing edges (meet: union
   for the MAY sets, intersection for MUST-DEF); returns whether anything
   changed.  Reads only the node's own routine — every PSG edge is
   intra-routine. *)
let recompute (psg : Psg.t) id =
  let sets = psg.sets and labels = psg.labels and dst = psg.dst in
  let first = psg.out_off.(id) and stop = psg.out_off.(id + 1) in
  if first = stop then false
  else begin
    let mu = ref Regset.empty and md = ref Regset.empty and sd = ref Regset.full in
    for e = first to stop - 1 do
      let l = 3 * e and d = 3 * dst.(e) in
      mu :=
        Regset.union !mu (Regset.union labels.(l) (Regset.diff sets.(d) labels.(l + 2)));
      md := Regset.union !md (Regset.union labels.(l + 1) sets.(d + 1));
      sd := Regset.inter !sd (Regset.union labels.(l + 2) sets.(d + 2))
    done;
    (* §3.4: a routine's saved-and-restored callee-saved registers are
       invisible to its callers. *)
    let kind = psg.kinds.(id) in
    if Psg.Kind.tag kind = Psg.Kind.entry then begin
      let mask = psg.entry_filter.(Psg.Kind.routine kind) in
      mu := Regset.diff !mu mask;
      md := Regset.diff !md mask;
      sd := Regset.diff !sd mask
    end;
    let o = 3 * id in
    let changed =
      not
        (Regset.equal !mu sets.(o)
        && Regset.equal !md sets.(o + 1)
        && Regset.equal !sd sets.(o + 2))
    in
    if changed then set3 sets id !mu !md !sd;
    changed
  end

(* Node [v] is read by the source of each of its in-edges, through that
   edge, and a routine's primary entry by the call node of every call
   that may target the routine, through the call's summary link. *)
let influence (psg : Psg.t) readers v f =
  Readers.iter_in readers v f;
  if Psg.tag psg v = Psg.Kind.entry then begin
    let r = Psg.routine_of_node psg v in
    if Psg.primary_entry_node psg r = v then
      for k = readers.Readers.callers_off.(r) to readers.callers_off.(r + 1) - 1 do
        let c = readers.callers_of.(k) in
        f (-1 - c) psg.call_node.(c)
      done
  end

(* Merge the summaries of every target call [c] may reach — primary
   entry nodes for routines of the program, supplied classes for
   external code (§3.5) — into its call-return label; returns whether the
   label changed. *)
let update_cr_edge (psg : Psg.t) c =
  if not (Psg.resolved psg c) then false
  else begin
    let sets = psg.sets and labels = psg.labels in
    let may_use = ref Regset.empty
    and may_def = ref Regset.empty
    and must_def = ref Regset.full in
    for i = psg.target_off.(c) to psg.target_off.(c + 1) - 1 do
      let x = psg.targets.(i) in
      if x >= 0 then begin
        let o = 3 * Psg.primary_entry_node psg x in
        may_use := Regset.union !may_use sets.(o);
        may_def := Regset.union !may_def sets.(o + 1);
        must_def := Regset.inter !must_def sets.(o + 2)
      end
      else begin
        let x = psg.externals.(-1 - x) in
        may_use := Regset.union !may_use x.Psg.x_used;
        may_def := Regset.union !may_def x.Psg.x_killed;
        must_def := Regset.inter !must_def x.Psg.x_defined
      end
    done;
    let may_use, may_def, must_def =
      fold_call_effect ~call_def:psg.call_def.(c) ~call_use:psg.call_use.(c)
        ~may_use:!may_use ~may_def:!may_def ~must_def:!must_def
    in
    let e = Psg.cr_edge psg c in
    let l = 3 * e in
    if
      Regset.equal labels.(l) may_use
      && Regset.equal labels.(l + 1) may_def
      && Regset.equal labels.(l + 2) must_def
    then false
    else begin
      Spike_obs.Metrics.incr c_cr_updates;
      set3 labels e may_use may_def must_def;
      true
    end
  end

(* A changed read can only alter a reader whose recomputation would
   gain MAY bits or lose MUST-DEF bits through that edge — the meet is
   a union (MAY) or intersection (MUST-DEF) over edges, so a
   contribution already absorbed by the reader's current sets is a
   provable no-op re-pop.  (An entry reader additionally masks the
   contribution, which only shrinks it: the test stays sound, merely
   pruning less.)  The SCC drains use this to stop re-marking readers
   once the bits circulating a dependency knot have saturated. *)
let edge_affects (psg : Psg.t) e src =
  let sets = psg.sets and labels = psg.labels in
  let l = 3 * e and d = 3 * psg.dst.(e) and r = 3 * src in
  let mu = Regset.union labels.(l) (Regset.diff sets.(d) labels.(l + 2))
  and md = Regset.union labels.(l + 1) sets.(d + 1)
  and sd = Regset.union labels.(l + 2) sets.(d + 2) in
  not
    (Regset.subset mu sets.(r)
    && Regset.subset md sets.(r + 1)
    && Regset.subset sets.(r + 2) sd)

(* Callees first: when a component starts, every summary it imports
   (entry nodes of callee components) is already converged, so its
   call-return edges are seeded once with final values and the fixpoint
   only iterates on intra-component cycles — CFG loops and mutual
   recursion. *)
let phase (psg : Psg.t) =
  {
    Sched.probes;
    direction = Sched.Callees_first;
    start = cold_init psg;
    enter_call =
      (fun c ->
        cold_cr_init psg c;
        ignore (update_cr_edge psg c));
    recompute = (fun _ id -> recompute psg id);
    influence = influence psg;
    (* A caller's call node reads a primary entry through its call's
       call-return label: recompute the label, then test it as an edge. *)
    affects =
      (fun via u ->
        if via >= 0 then edge_affects psg via u
        else
          let c = -1 - via in
          update_cr_edge psg c && edge_affects psg (Psg.cr_edge psg c) u);
  }

let run ?sched psg = Sched.run ?sched:(Option.map Lazy.from_val sched) psg (phase psg)
