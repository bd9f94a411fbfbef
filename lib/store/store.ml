open Spike_support
open Spike_isa
open Spike_ir
open Spike_core

let file_name = "spike.store"
let magic = "SPIKSTOR"

type load_result = {
  plan : Warm.plan;
  hits : int;
  misses : int;
  invalidated : int;
  degraded : string option;
}

let c_hits = Spike_obs.Metrics.counter "store.load.hits"
let c_misses = Spike_obs.Metrics.counter "store.load.misses"
let c_invalidated = Spike_obs.Metrics.counter "store.load.invalidations"
let c_degradations = Spike_obs.Metrics.counter "store.degradations"
let c_fingerprints = Spike_obs.Metrics.counter "store.fingerprints"

let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Corrupt m)) fmt

(* An entry that does not fit the current program: it names a call
   target the program no longer has, or a block past the end of its
   routine.  Not corruption when the entry is stale: the edit deleted the
   callee or shortened the routine. *)
exception Outdated of string

(* --- Entry bodies ------------------------------------------------------------

   An entry body is what the phases read of a routine — its filter, its
   fragment and its converged solutions — written as runs straight from
   the routine's rows of a converged PSG:

     filter
     nodes, then per node its kind (tag and block, no routine) and then
     its out-degree; the edges' destinations; the edges' labels
     calls' own definitions, then their own uses (one per call node)
     per call its target count, then the targets: an index into the
     entry's callee-name table, or -1 - k for external class k
     external count, then three sets per external class
     phase-1 triples, then liveness (per node)

   No edge source is written (edges are numbered by source), no call
   node (they are the call-tagged nodes), no entry label (an entry node
   holds its position) and no callee (a call's callee is the routine's
   call instruction of the same rank, read when the body is decoded).  A call-return edge's
   label is its converged value: decoding moves it to the artifact's
   call-return solution and puts the start value back.  The CFG and
   DEF/UBD are not stored; {!Analysis.cfg} rebuilds them if a consumer
   asks. *)

let write_body w (psg : Psg.t) r ~table_index =
  let n0 = psg.first_node.(r) and n1 = psg.first_node.(r + 1) in
  let e0 = psg.first_edge.(r) and e1 = psg.first_edge.(r + 1) in
  let c0 = psg.first_call.(r) and c1 = psg.first_call.(r + 1) in
  Codec.write_regset w psg.entry_filter.(r);
  Codec.write_int w (n1 - n0);
  for n = n0 to n1 - 1 do
    Codec.write_int w (Psg.Kind.local psg.kinds.(n))
  done;
  for n = n0 to n1 - 1 do
    Codec.write_int w (psg.out_off.(n + 1) - psg.out_off.(n))
  done;
  for e = e0 to e1 - 1 do
    Codec.write_int w (psg.dst.(e) - n0)
  done;
  Codec.write_regsets w psg.labels ~pos:(3 * e0) ~len:(3 * (e1 - e0));
  Codec.write_regsets w psg.call_def ~pos:c0 ~len:(c1 - c0);
  Codec.write_regsets w psg.call_use ~pos:c0 ~len:(c1 - c0);
  for c = c0 to c1 - 1 do
    Codec.write_int w (psg.target_off.(c + 1) - psg.target_off.(c))
  done;
  (* External classes are re-interned per entry, in first-use order. *)
  let external_index, externals = Psg_build.interner Int.equal in
  for i = psg.target_off.(c0) to psg.target_off.(c1) - 1 do
    let x = psg.targets.(i) in
    Codec.write_int w (if x >= 0 then table_index x else -1 - external_index x)
  done;
  let externals = externals () in
  Codec.write_int w (List.length externals);
  List.iter
    (fun x ->
      let c = psg.externals.(-1 - x) in
      Codec.write_regset w c.Psg.x_used;
      Codec.write_regset w c.x_defined;
      Codec.write_regset w c.x_killed)
    externals;
  Codec.write_regsets w psg.sets ~pos:(3 * n0) ~len:(3 * (n1 - n0));
  Codec.write_regsets w psg.live ~pos:n0 ~len:(n1 - n0)

(* Decodes a body against [routine], the current routine of the entry's
   name, with [callees] the entry's callee-name table.  Every id is
   range-checked before it is stored: node ids, kind tags, target indices
   and entry positions, and the shape the lanes imply — entry nodes first,
   each call node followed by its return node through its only out-edge.
   What does not fit the current program — a table name it no longer
   has, a block past the routine's end, another entry count — is
   reported as [Outdated] once the whole body has decoded: real
   corruption anywhere in the entry takes precedence.  The callee lane is
   the routine's call instructions; a count that differs from the
   entry's calls is left for the caller to judge. *)
let read_body ~resolve ~callees ~(routine : Routine.t) rd : Warm.routine_art =
  let outdated = ref None in
  let outdate fmt =
    Printf.ksprintf (fun m -> if !outdated = None then outdated := Some m) fmt
  in
  let filter = Codec.read_regset rd in
  let nnodes = Codec.read_int rd in
  let kinds = Codec.read_ints rd nnodes in
  let instructions = Routine.instruction_count routine in
  let nentries = ref 0 and ncalls = ref 0 in
  Array.iteri
    (fun n k ->
      let tag = Psg.Kind.tag k and b = k lsr 3 in
      if k < 0 || tag >= Psg.Kind.count || b > Psg.Kind.max_block then
        corrupt "bad node kind %d" k;
      if tag = Psg.Kind.entry then begin
        if n <> !nentries || b <> n then corrupt "entry node %d at position %d" n b;
        incr nentries
      end
      else if b >= instructions then
        outdate "block %d past the routine's %d instructions" b instructions;
      if tag = Psg.Kind.call then begin
        incr ncalls;
        if n + 1 >= nnodes || Psg.Kind.tag kinds.(n + 1) <> Psg.Kind.return then
          corrupt "call node %d without a return node" n
      end;
      if tag = Psg.Kind.return && (n = 0 || Psg.Kind.tag kinds.(n - 1) <> Psg.Kind.call)
      then corrupt "return node %d without a call node" n)
    kinds;
  if !nentries = 0 then corrupt "no entry node";
  if !nentries <> List.length routine.entries then
    outdate "%d entries, the routine has %d" !nentries (List.length routine.entries);
  let ncalls = !ncalls in
  (* The entry's calls are its routine's call instructions, in order: one
     scan collects the callee lane, whose length {!plan_entries} checks
     against the call count. *)
  let call_callees = Vec.create () in
  Array.iter
    (fun insn -> Option.iter (Vec.push call_callees) (Insn.call_callee insn))
    routine.insns;
  (* A run of counts sums to the length of a later run of ints, each at
     least one byte: a sum past the bytes left is corrupt. *)
  let total counts =
    Array.fold_left
      (fun sum k ->
        if k < 0 || k > Codec.remaining rd - sum then corrupt "bad count %d" k;
        sum + k)
      0 counts
  in
  let degrees = Codec.read_ints rd nnodes in
  let l_src = Array.make (total degrees) 0 in
  let e = ref 0 in
  Array.iteri
    (fun n d ->
      if Psg.Kind.tag kinds.(n) = Psg.Kind.call && d <> 1 then
        corrupt "call node %d with %d out-edges" n d;
      Array.fill l_src !e d n;
      e := !e + d)
    degrees;
  let nedges = Array.length l_src in
  let l_dst = Codec.read_ints rd nedges in
  Array.iteri
    (fun e d ->
      if d < 0 || d >= nnodes then corrupt "node id %d out of %d" d nnodes;
      if Psg.Kind.tag kinds.(l_src.(e)) = Psg.Kind.call && d <> l_src.(e) + 1 then
        corrupt "call-return edge %d into node %d" e d)
    l_dst;
  let l_labels = Codec.read_regsets rd (3 * nedges) in
  let l_call_def = Codec.read_regsets rd ncalls in
  let l_call_use = Codec.read_regsets rd ncalls in
  let counts = Codec.read_ints rd ncalls in
  let ntargets = total counts in
  let l_target_off = Array.make (ncalls + 1) 0 in
  Array.iteri (fun c k -> l_target_off.(c + 1) <- l_target_off.(c) + k) counts;
  let raw_targets = Codec.read_ints rd ntargets in
  let nexternals = Codec.read_int rd in
  if nexternals < 0 || nexternals > Codec.remaining rd / 24 then
    corrupt "bad external count %d" nexternals;
  let x = Codec.read_regsets rd (3 * nexternals) in
  let l_externals =
    Array.init nexternals (fun k ->
        { Psg.x_used = x.(3 * k); x_defined = x.((3 * k) + 1); x_killed = x.((3 * k) + 2) })
  in
  (* Each distinct callee is resolved once per entry. *)
  let table = Array.of_list callees in
  let resolved = Array.map resolve table in
  let l_targets =
    Array.map
      (fun t ->
        if t >= Array.length table || t < -nexternals then corrupt "call target %d" t;
        if t < 0 then t
        else
          match resolved.(t) with
          | Some r -> r
          | None ->
              outdate "call target %S not in program" table.(t);
              0)
      raw_targets
  in
  let a_phase1 = Codec.read_regsets rd (3 * nnodes) in
  let a_phase2 = Codec.read_regsets rd nnodes in
  if not (Codec.at_end rd) then corrupt "trailing bytes in entry body";
  Option.iter (fun m -> raise (Outdated m)) !outdated;
  (* Call-return labels: the converged value is the solution; the
     fragment holds the start value. *)
  let a_cr = Array.make (3 * ncalls) Regset.empty in
  let start = Edge_dataflow.top_must and c = ref 0 in
  Array.iteri
    (fun e s ->
      if Psg.Kind.tag kinds.(s) = Psg.Kind.call then begin
        Array.blit l_labels (3 * e) a_cr (3 * !c) 3;
        l_labels.(3 * e) <- start.may_use;
        l_labels.((3 * e) + 1) <- start.may_def;
        l_labels.((3 * e) + 2) <- start.must_def;
        incr c
      end)
    l_src;
  let a_local =
    {
      Psg_build.l_kinds = kinds;
      l_src;
      l_dst;
      l_labels;
      l_call_def;
      l_call_use;
      l_callee = Vec.to_array call_callees;
      l_target_off;
      l_targets;
      l_externals;
    }
  in
  Warm.Slice { a_filter = filter; a_local; a_phase1; a_cr; a_phase2 }

(* --- Fingerprints, once per run ------------------------------------------

   [spike analyze --store] fingerprints the program at [load], analyses
   it, then writes every routine's fingerprint at [save].  The planner
   therefore leaves the digests it computed behind, keyed on the program
   and the resolution environment, and [save] and [retain] take a
   routine's digest from there while the routine at that index is
   physically the one that was fingerprinted.  Any other program,
   environment or routine is fingerprinted afresh.  The ephemeron keeps
   neither key alive.  Single-domain, like {!Fingerprint.routine}. *)

type fingerprints = {
  f_routines : Routine.t array;  (* the program's routines when planned *)
  f_digests : string array;  (* routine index -> digest; "" = not computed *)
}

let last_fingerprints :
    (Program.t, string -> Psg.external_class option, fingerprints) Ephemeron.K2.t option
    ref =
  ref None

let fresh_fingerprint ~externals program routine =
  Spike_obs.Metrics.incr c_fingerprints;
  Fingerprint.routine ~externals program routine

(* [fingerprinter ~externals program r routine] is routine [r]'s digest. *)
let fingerprinter ~externals program =
  let memo =
    Option.bind !last_fingerprints (fun e -> Ephemeron.K2.query e program externals)
  in
  fun r routine ->
    match memo with
    | Some m when m.f_routines.(r) == routine && m.f_digests.(r) <> "" -> m.f_digests.(r)
    | _ -> fresh_fingerprint ~externals program routine

(* --- Warm plans --------------------------------------------------------

   Both sources of cached artifacts — the disk file and a resident
   session — present each routine's entry the same way, and one planner
   turns them into a {!Warm.plan}. *)

type entry = {
  e_fp : string;
  e_callees : string list;
  e_exported : bool;  (* the routine's exported flag when cached *)
  e_is_main : bool;  (* it was the program's main routine when cached *)
  e_decode :
    resolve:(string -> int option) -> routine:int -> Routine.t -> Warm.routine_art;
      (* the artifact with routine indices read by [resolve], for the
         current routine of the entry's name at index [routine]; may raise
         [Codec.Corrupt] or [Outdated] *)
}

let cold_result ?degraded program =
  let n = Program.routine_count program in
  Spike_obs.Metrics.add c_misses n;
  { plan = Warm.cold program; hits = 0; misses = n; invalidated = 0; degraded }

(* A source unusable as a whole: counted, logged, and an all-cold plan. *)
let degrade ~source reason program =
  Spike_obs.Metrics.incr c_degradations;
  Printf.eprintf "spike-store: ignoring %s, falling back to cold run: %s\n%!" source
    reason;
  cold_result ~degraded:reason program

(* One bad entry in a healthy source: counted like a whole-source
   corruption, but only this routine is rebuilt. *)
let undecodable name reason =
  Spike_obs.Metrics.incr c_degradations;
  Printf.eprintf "spike-store: undecodable entry for %s (%s), rebuilding it\n%!" name
    reason

let plan_entries ~externals (entries : (string, entry) Hashtbl.t) program =
  let n = Program.routine_count program in
  let resolve name = Program.find_index program name in
  let plan = Warm.cold program in
  let digests = Array.make n "" in
  let claimed = Hashtbl.create n in
  let hits = ref 0 and misses = ref 0 and invalidated = ref 0 in
  Program.iter
    (fun r (routine : Routine.t) ->
      match Hashtbl.find_opt entries routine.name with
      | None -> incr misses
      | Some e -> (
          let fp = fresh_fingerprint ~externals program routine in
          digests.(r) <- fp;
          let fresh = String.equal e.e_fp fp in
          if not fresh then incr invalidated;
          (* A stale entry is decoded anyway, as a lift candidate: the edit
             may have left the equation system intact ({!Warm.solutions}).
             Its cached callees re-seed exits only if the lift fails, so it
             is claimed here. *)
          match
            let art = e.e_decode ~resolve ~routine:r routine in
            (* A fresh entry's calls are its routine's call instructions,
               whose callees the decode collected; a stale one is only a
               lift candidate, never stitched. *)
            (match art with
            | Warm.Slice { a_local = l; _ }
              when fresh && Array.length l.l_callee <> Array.length l.l_call_def ->
                raise
                  (Outdated
                     (Printf.sprintf "%d calls, the routine has %d"
                        (Array.length l.l_call_def) (Array.length l.l_callee)))
            | Warm.Slice _ | Warm.Rows _ -> ());
            art
          with
          | art ->
              Hashtbl.replace claimed routine.name ();
              if fresh then begin
                plan.Warm.arts.(r) <- Some art;
                incr hits
              end
              else
                plan.Warm.donors.(r) <-
                  Some
                    {
                      Warm.d_art = Warm.to_slice art;
                      d_callees = e.e_callees;
                      d_exported = e.e_exported;
                      d_is_main = e.e_is_main;
                    }
          | exception Codec.Corrupt reason ->
              undecodable routine.name reason;
              if fresh then incr invalidated
          | exception Outdated reason ->
              (* The fingerprint covers the body and call resolution, so a
                 fresh entry cannot name a missing routine, a block past
                 the routine's end or another entry or call count.  A
                 stale one can: the edit deleted a callee or reshaped the
                 routine, and nothing is wrong with the source. *)
              if fresh then begin
                undecodable routine.name reason;
                incr invalidated
              end))
    program;
  (* An entry that is neither reused nor a lift candidate belonged to a
     routine that was edited or deleted: the routines it called may have
     lost a caller, so their exits must re-seed in phase 2. *)
  Hashtbl.iter
    (fun name e ->
      if not (Hashtbl.mem claimed name) then
        List.iter
          (fun callee ->
            match resolve callee with
            | Some r -> plan.Warm.exit_seeds.(r) <- true
            | None -> ())
          e.e_callees)
    entries;
  last_fingerprints :=
    Some
      (Ephemeron.K2.make program externals
         { f_routines = Array.copy (Program.routines program); f_digests = digests });
  Spike_obs.Metrics.add c_hits !hits;
  Spike_obs.Metrics.add c_misses !misses;
  Spike_obs.Metrics.add c_invalidated !invalidated;
  { plan; hits = !hits; misses = !misses; invalidated = !invalidated; degraded = None }

(* --- File format ---------------------------------------------------------

   magic(8) version config_key(16) checksum(8) payload_len payload

   The checksum covers the payload only; the header fields it would guard
   are each checked semantically anyway. *)

let int64_raw v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Bytes.unsafe_to_string b

let parse_file ~config data =
  let rd = Codec.reader data in
  if Codec.read_raw rd 8 <> magic then corrupt "bad magic";
  let version = Codec.read_int rd in
  if version <> Fingerprint.format_version then
    corrupt "format version %d, expected %d" version Fingerprint.format_version;
  if Codec.read_raw rd 16 <> config then corrupt "analysis configuration mismatch";
  let sum = Codec.read_raw rd 8 in
  let plen = Codec.read_int rd in
  let payload_pos = Codec.pos rd in
  if plen < 0 || payload_pos + plen <> String.length data then
    corrupt "payload length %d does not match file size" plen;
  if int64_raw (Codec.checksum data ~pos:payload_pos ~len:plen) <> sum then
    corrupt "payload checksum mismatch";
  let rd = Codec.reader ~pos:payload_pos ~len:plen data in
  let entries =
    Codec.read_list
      (fun rd ->
        let name = Codec.read_string rd in
        let e_fp = Codec.read_raw rd 16 in
        let e_exported = Codec.read_bool rd in
        let e_is_main = Codec.read_bool rd in
        let e_callees = Codec.read_list Codec.read_string rd in
        (* The body is decoded in place, from the file's own string. *)
        let len = Codec.read_int rd in
        let pos = Codec.pos rd in
        Codec.skip rd len;
        let e_decode ~resolve ~routine:_ routine =
          read_body ~resolve ~callees:e_callees ~routine (Codec.reader ~pos ~len data)
        in
        (name, { e_fp; e_callees; e_exported; e_is_main; e_decode }))
      rd
  in
  if not (Codec.at_end rd) then corrupt "trailing bytes after entries";
  let by_name = Hashtbl.create (List.length entries) in
  List.iter (fun (name, e) -> Hashtbl.replace by_name name e) entries;
  by_name

let read_file path =
  In_channel.with_open_bin path @@ fun ic ->
  (* Sized read: [input_all] grows-and-copies its way through 6 MB files. *)
  match In_channel.length ic with
  | n when n > 0L && n <= Int64.of_int Sys.max_string_length -> (
      let n = Int64.to_int n in
      let b = Bytes.create n in
      match In_channel.really_input ic b 0 n with
      | Some () when In_channel.input_char ic = None -> Bytes.unsafe_to_string b
      | _ -> corrupt "file size changed while reading"
      | exception End_of_file -> corrupt "file size changed while reading")
  | _ -> In_channel.input_all ic

let load ~dir ?(branch_nodes = true) ?(externals = Psg.no_externals)
    ?(callee_saved_filter = true) program =
  Spike_obs.Trace.with_span "store.load" @@ fun () ->
  let path = Filename.concat dir file_name in
  if not (Sys.file_exists path) then cold_result program
  else
    let config = Fingerprint.config_key ~branch_nodes ~callee_saved_filter in
    match parse_file ~config (read_file path) with
    | exception (Codec.Corrupt reason | Sys_error reason) ->
        degrade ~source:path reason program
    | entries -> plan_entries ~externals entries program

(* [Unix.mkdir]'s errors are re-raised as [Sys_error], the one exception
   {!save} documents. *)
let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o777 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
        raise (Sys_error (Printf.sprintf "%s: %s" dir (Unix.error_message e)))
  end

let save ~dir (a : Analysis.t) =
  Spike_obs.Trace.with_span "store.save" @@ fun () ->
  let program = a.Analysis.program in
  let externals = a.Analysis.externals in
  let main_index = Program.main_index program in
  let fingerprint = fingerprinter ~externals program in
  let payload = Buffer.create (1 lsl 20) in
  Codec.write_int payload (Program.routine_count program);
  let body_buf = Buffer.create (1 lsl 16) in
  let psg = a.Analysis.psg in
  (* Routine index -> its position in the current entry's callee-name
     table; -1 outside it. *)
  let table_pos = Array.make (Program.routine_count program) (-1) in
  Program.iter
    (fun r (routine : Routine.t) ->
      let callees = Psg.routine_callees psg r in
      let table =
        List.sort
          (fun x y -> String.compare (fst x) (fst y))
          (List.map (fun c -> ((Program.get program c).Routine.name, c)) callees)
      in
      List.iteri (fun i (_, c) -> table_pos.(c) <- i) table;
      Codec.write_string payload routine.Routine.name;
      Codec.write_raw payload (fingerprint r routine);
      (* The phase-2 exit seeds depend on these two flags but the local
         fragment does not carry them, so a lift must compare them. *)
      Codec.write_bool payload routine.Routine.exported;
      Codec.write_bool payload (r = main_index);
      Codec.write_list (fun w (name, _) -> Codec.write_string w name) payload table;
      Buffer.clear body_buf;
      write_body body_buf psg r ~table_index:(Array.get table_pos);
      List.iter (fun c -> table_pos.(c) <- -1) callees;
      Codec.write_int payload (Buffer.length body_buf);
      Buffer.add_buffer payload body_buf)
    program;
  let payload = Buffer.contents payload in
  let header = Buffer.create 64 in
  Codec.write_raw header magic;
  Codec.write_int header Fingerprint.format_version;
  Codec.write_raw header
    (Fingerprint.config_key ~branch_nodes:a.Analysis.branch_nodes
       ~callee_saved_filter:a.Analysis.callee_saved_filter);
  Codec.write_raw header
    (int64_raw (Codec.checksum payload ~pos:0 ~len:(String.length payload)));
  Codec.write_int header (String.length payload);
  mkdir_p dir;
  let path = Filename.concat dir file_name in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.tmp.%d" file_name (Unix.getpid ()))
  in
  let oc = Out_channel.open_bin tmp in
  match
    Out_channel.output_string oc (Buffer.contents header);
    Out_channel.output_string oc payload;
    Out_channel.close oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception (Sys_error _ as e) ->
      Out_channel.close_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* --- In-memory sessions ---------------------------------------------------

   The disk path pays a decode cost proportional to the whole artifact
   graph; a resident driver (editor daemon, watch mode) can skip it by
   retaining the previous run's artifacts, sliced off its PSG, and
   re-planning against the edited program directly.  Reuse is sound
   because a warm run never mutates retained structure: the stitch and
   the warm restore copy the fragments' and artifacts' register-set
   arrays into the fresh PSG's own lanes, and a slice copies them back
   out. *)

type session = { s_config : string; s_entries : (string, entry) Hashtbl.t }

(* A retained artifact is its routine's rows of the session's PSG; its
   call targets are routine indices of the session's program.  An edit
   that inserts or deletes a routine shifts them, so they are remapped by
   name — exactly what {!read_body} does for the disk path — in a copy.
   The common case (every target unmoved) references the rows in place:
   the stitch places them at the routine's current index.  A retained
   artifact was read off a converged analysis, so unlike a decoded one it
   needs no bounds. *)
let fixup_art ~(old_psg : Psg.t) ~old_r ~resolve ~routine:_ _ : Warm.routine_art =
  let old_program = old_psg.program in
  let remap old_target =
    let name = (Program.get old_program old_target).Routine.name in
    match resolve name with
    | Some nr -> nr
    | None -> raise (Outdated (Printf.sprintf "call target %S not in program" name))
  in
  let callees = Psg.routine_callees old_psg old_r in
  if List.for_all (fun c -> remap c = c) callees then Warm.Rows (old_psg, old_r)
  else
    let s = Warm.slice old_psg old_r in
    let l = s.a_local in
    let l_targets = Array.map (fun x -> if x >= 0 then remap x else x) l.l_targets in
    Warm.Slice { s with a_local = { l with l_targets } }

let retain (a : Analysis.t) =
  Spike_obs.Trace.with_span "store.retain" @@ fun () ->
  let program = a.Analysis.program in
  let externals = a.Analysis.externals in
  let main_index = Program.main_index program in
  let fingerprint = fingerprinter ~externals program in
  let entries = Hashtbl.create (Program.routine_count program) in
  let psg = a.Analysis.psg in
  Program.iter
    (fun r (routine : Routine.t) ->
      Hashtbl.replace entries routine.Routine.name
        {
          e_fp = fingerprint r routine;
          e_callees = Warm.names program (Psg.routine_callees psg r);
          e_exported = routine.Routine.exported;
          e_is_main = r = main_index;
          e_decode = fixup_art ~old_psg:psg ~old_r:r;
        })
    program;
  {
    s_config =
      Fingerprint.config_key ~branch_nodes:a.Analysis.branch_nodes
        ~callee_saved_filter:a.Analysis.callee_saved_filter;
    s_entries = entries;
  }

let replan session ?(branch_nodes = true) ?(externals = Psg.no_externals)
    ?(callee_saved_filter = true) program =
  Spike_obs.Trace.with_span "store.replan" @@ fun () ->
  let config = Fingerprint.config_key ~branch_nodes ~callee_saved_filter in
  if String.equal config session.s_config then
    plan_entries ~externals session.s_entries program
  else degrade ~source:"retained session" "analysis configuration mismatch" program
