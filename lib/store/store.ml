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

(* --- Shared sub-codecs --------------------------------------------------- *)

let write_callee w = function
  | Insn.Direct name ->
      Codec.write_int w 0;
      Codec.write_string w name
  | Insn.Indirect (r, None) ->
      Codec.write_int w 1;
      Codec.write_int w r
  | Insn.Indirect (r, Some names) ->
      Codec.write_int w 2;
      Codec.write_int w r;
      Codec.write_list Codec.write_string w names

let read_callee rd =
  match Codec.read_int rd with
  | 0 -> Insn.Direct (Codec.read_string rd)
  | 1 -> Insn.Indirect (Codec.read_int rd, None)
  | 2 ->
      let r = Codec.read_int rd in
      Insn.Indirect (r, Some (Codec.read_list Codec.read_string rd))
  | t -> corrupt "bad callee tag %d" t

(* Node kinds are stored without their routine field and rehydrated with
   the routine's {e current} index, so index drift cannot stale them. *)
let write_kind w = function
  | Psg.Entry { label; _ } ->
      Codec.write_int w 0;
      Codec.write_string w label
  | Psg.Exit { block; _ } ->
      Codec.write_int w 1;
      Codec.write_int w block
  | Psg.Call { block; _ } ->
      Codec.write_int w 2;
      Codec.write_int w block
  | Psg.Return { call_block; block; _ } ->
      Codec.write_int w 3;
      Codec.write_int w call_block;
      Codec.write_int w block
  | Psg.Branch { block; _ } ->
      Codec.write_int w 4;
      Codec.write_int w block
  | Psg.Unknown_exit { block; _ } ->
      Codec.write_int w 5;
      Codec.write_int w block

let read_kind ~routine rd =
  match Codec.read_int rd with
  | 0 -> Psg.Entry { routine; label = Codec.read_string rd }
  | 1 -> Psg.Exit { routine; block = Codec.read_int rd }
  | 2 -> Psg.Call { routine; block = Codec.read_int rd }
  | 3 ->
      let call_block = Codec.read_int rd in
      Psg.Return { routine; call_block; block = Codec.read_int rd }
  | 4 -> Psg.Branch { routine; block = Codec.read_int rd }
  | 5 -> Psg.Unknown_exit { routine; block = Codec.read_int rd }
  | t -> corrupt "bad node kind tag %d" t

(* Call targets are stored by routine name and remapped at load. *)
let write_target program w = function
  | Psg.Target_routine r ->
      Codec.write_int w 0;
      Codec.write_string w (Program.get program r).Routine.name
  | Psg.Target_external (c : Psg.external_class) ->
      Codec.write_int w 1;
      Codec.write_regset w c.x_used;
      Codec.write_regset w c.x_defined;
      Codec.write_regset w c.x_killed

let read_target ~resolve rd =
  match Codec.read_int rd with
  | 0 -> Psg.Target_routine (resolve (Codec.read_string rd))
  | 1 ->
      let x_used = Codec.read_regset rd in
      let x_defined = Codec.read_regset rd in
      let x_killed = Codec.read_regset rd in
      Psg.Target_external { x_used; x_defined; x_killed }
  | t -> corrupt "bad call target tag %d" t

(* --- Per-routine entry bodies -------------------------------------------- *)

let write_local program w (l : Psg_build.local) =
  Codec.write_array write_kind w l.l_kinds;
  (* Edges in the fragment's own flat layout: the labels are the bytes,
     and decode is a bulk copy. *)
  Codec.write_array Codec.write_int w l.l_src;
  Codec.write_array Codec.write_int w l.l_dst;
  Codec.write_regset_array w l.l_labels;
  Codec.write_array
    (fun w (c : Psg_build.local_call) ->
      Codec.write_int w c.lc_call_node;
      Codec.write_int w c.lc_return_node;
      Codec.write_int w c.lc_cr_edge;
      write_callee w c.lc_callee;
      Codec.write_option (Codec.write_list (write_target program)) w c.lc_targets;
      Codec.write_regset w c.lc_call_def;
      Codec.write_regset w c.lc_call_use)
    w l.l_calls;
  Codec.write_list Codec.write_int w l.l_entry;
  Codec.write_list Codec.write_int w l.l_exit;
  Codec.write_list Codec.write_int w l.l_unknown

(* An entry body is what the phases read of a routine: its filter, its
   fragment and its converged solutions.  The CFG and DEF/UBD are not
   stored; {!Analysis.cfg} rebuilds them if a consumer asks. *)
let write_body program w (art : Warm.routine_art) =
  Codec.write_regset w art.a_filter;
  write_local program w art.a_local;
  Codec.write_regset_array w art.a_phase1;
  Codec.write_regset_array w art.a_cr;
  Codec.write_regset_array w art.a_phase2

let check_node_id nnodes id =
  if id < 0 || id >= nnodes then corrupt "node id %d out of %d" id nnodes

(* A target missing from the current program decodes as routine -1, and a
   block id at or past [instructions] (the current routine's instruction
   count, which bounds its CFG's blocks) is left in place; both are
   reported, as [Outdated], only once the whole body has decoded: real
   corruption anywhere in the entry takes precedence.  A negative block id
   is corruption. *)
let read_body ~resolve ~routine:(r : int) ~instructions body : Warm.routine_art =
  let vanished = ref None in
  let resolve name =
    match resolve name with
    | Some r -> r
    | None ->
        if !vanished = None then vanished := Some name;
        -1
  in
  let rd = Codec.reader body in
  let filter = Codec.read_regset rd in
  let kinds = Codec.read_array (read_kind ~routine:r) rd in
  let nnodes = Array.length kinds in
  let outgrown = ref None in
  let check_block b =
    if b < 0 then corrupt "block id %d" b
    else if b >= instructions && !outgrown = None then outgrown := Some b
  in
  Array.iter
    (function
      | Psg.Entry _ -> ()
      | Psg.Exit { block; _ } | Psg.Call { block; _ } | Psg.Branch { block; _ }
      | Psg.Unknown_exit { block; _ } ->
          check_block block
      | Psg.Return { call_block; block; _ } ->
          check_block call_block;
          check_block block)
    kinds;
  let read_node_ids rd =
    let ids = Codec.read_array Codec.read_int rd in
    Array.iter (check_node_id nnodes) ids;
    ids
  in
  let l_src = read_node_ids rd in
  let l_dst = read_node_ids rd in
  let l_labels = Codec.read_regset_array rd in
  let nedges = Array.length l_src in
  if Array.length l_dst <> nedges || Array.length l_labels <> 3 * nedges then
    corrupt "edge array length mismatch";
  let calls =
    Codec.read_array
      (fun rd ->
        let lc_call_node = Codec.read_int rd in
        let lc_return_node = Codec.read_int rd in
        let lc_cr_edge = Codec.read_int rd in
        check_node_id nnodes lc_call_node;
        check_node_id nnodes lc_return_node;
        if lc_cr_edge < 0 || lc_cr_edge >= nedges then
          corrupt "edge id %d out of %d" lc_cr_edge nedges;
        let lc_callee = read_callee rd in
        let lc_targets = Codec.read_option (Codec.read_list (read_target ~resolve)) rd in
        let lc_call_def = Codec.read_regset rd in
        let lc_call_use = Codec.read_regset rd in
        { Psg_build.lc_call_node; lc_return_node; lc_cr_edge; lc_callee;
          lc_targets; lc_call_def; lc_call_use })
      rd
  in
  let read_ids rd =
    Codec.read_list
      (fun rd ->
        let id = Codec.read_int rd in
        check_node_id nnodes id;
        id)
      rd
  in
  let l_entry = read_ids rd in
  let l_exit = read_ids rd in
  let l_unknown = read_ids rd in
  let local =
    { Psg_build.l_kinds = kinds; l_src; l_dst; l_labels; l_calls = calls; l_entry;
      l_exit; l_unknown }
  in
  let a_phase1 = Codec.read_regset_array rd in
  let a_cr = Codec.read_regset_array rd in
  let a_phase2 = Codec.read_regset_array rd in
  if
    Array.length a_phase1 <> nnodes * 3
    || Array.length a_cr <> Array.length calls * 3
    || Array.length a_phase2 <> nnodes
  then corrupt "solution length mismatch";
  if not (Codec.at_end rd) then corrupt "trailing bytes in entry body";
  Option.iter
    (fun name -> raise (Outdated (Printf.sprintf "call target %S not in program" name)))
    !vanished;
  Option.iter
    (fun b ->
      raise
        (Outdated (Printf.sprintf "block %d past the routine's %d instructions" b instructions)))
    !outgrown;
  { Warm.a_filter = filter; a_local = local; a_phase1; a_cr; a_phase2 }

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
    resolve:(string -> int option) -> routine:int -> instructions:int -> Warm.routine_art;
      (* the artifact with routine indices read by [resolve], for a routine
         of [instructions] instructions; may raise [Codec.Corrupt] or
         [Outdated] *)
}

let main_index program =
  match Program.find_index program (Program.main program) with
  | Some i -> i
  | None -> assert false (* guaranteed by Program.make *)

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
            e.e_decode ~resolve ~routine:r
              ~instructions:(Routine.instruction_count routine)
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
                      Warm.d_art = art;
                      d_callees = e.e_callees;
                      d_exported = e.e_exported;
                      d_is_main = e.e_is_main;
                    }
          | exception Codec.Corrupt reason ->
              undecodable routine.name reason;
              if fresh then incr invalidated
          | exception Outdated reason ->
              (* The fingerprint covers the body and call resolution, so a
                 fresh entry cannot name a missing routine or a block past
                 the routine's end.  A stale one can: the edit deleted a
                 callee or shortened the routine, and nothing is wrong with
                 the source. *)
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
        let body = Codec.read_string rd in
        (name, { e_fp; e_callees; e_exported; e_is_main; e_decode = read_body body }))
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
  let main_index = main_index program in
  let fingerprint = fingerprinter ~externals program in
  let payload = Buffer.create (1 lsl 20) in
  Codec.write_int payload (Program.routine_count program);
  let body_buf = Buffer.create (1 lsl 16) in
  let offsets = Psg.offsets a.Analysis.psg in
  Program.iter
    (fun r (routine : Routine.t) ->
      let art = Warm.slice a.Analysis.psg offsets r in
      Codec.write_string payload routine.Routine.name;
      Codec.write_raw payload (fingerprint r routine);
      (* The phase-2 exit seeds depend on these two flags but the local
         fragment does not carry them, so a lift must compare them. *)
      Codec.write_bool payload routine.Routine.exported;
      Codec.write_bool payload (r = main_index);
      Codec.write_list Codec.write_string payload
        (Warm.callee_names program art.a_local);
      Buffer.clear body_buf;
      write_body program body_buf art;
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

(* Retained fragments carry routine indices of the session's program;
   node kinds the routine's own index, call targets their callees'.  An
   edit that inserts or deletes a routine shifts both, so they are
   remapped by name — exactly what {!read_body} does for the disk path.
   The common case (indices unchanged) shares the retained artifact
   outright.  A retained artifact was sliced from a converged analysis, so
   unlike a decoded one its block ids need no bound. *)
let rekind ~routine = function
  | Psg.Entry { label; _ } -> Psg.Entry { routine; label }
  | Psg.Exit { block; _ } -> Psg.Exit { routine; block }
  | Psg.Call { block; _ } -> Psg.Call { routine; block }
  | Psg.Return { call_block; block; _ } -> Psg.Return { routine; call_block; block }
  | Psg.Branch { block; _ } -> Psg.Branch { routine; block }
  | Psg.Unknown_exit { block; _ } -> Psg.Unknown_exit { routine; block }

let fixup_art ~old_program ~old_r (art : Warm.routine_art) ~resolve ~routine:r
    ~instructions:_ : Warm.routine_art =
  let remap = function
    | Psg.Target_external _ as tg -> tg
    | Psg.Target_routine old_r -> (
        let name = (Program.get old_program old_r).Routine.name in
        match resolve name with
        | Some nr -> Psg.Target_routine nr
        | None -> raise (Outdated (Printf.sprintf "call target %S not in program" name)))
  in
  let target_unmoved = function
    | Psg.Target_external _ -> true
    | Psg.Target_routine old_r -> (
        match resolve (Program.get old_program old_r).Routine.name with
        | Some nr -> nr = old_r
        | None -> false)
  in
  let unmoved =
    old_r = r
    && Array.for_all
         (fun (c : Psg_build.local_call) ->
           match c.lc_targets with
           | None -> true
           | Some targets -> List.for_all target_unmoved targets)
         art.a_local.l_calls
  in
  if unmoved then art
  else
    let l = art.a_local in
    let a_local =
      {
        l with
        Psg_build.l_kinds = Array.map (rekind ~routine:r) l.l_kinds;
        l_calls =
          Array.map
            (fun (c : Psg_build.local_call) ->
              { c with lc_targets = Option.map (List.map remap) c.lc_targets })
            l.l_calls;
      }
    in
    { art with a_local }

let retain (a : Analysis.t) =
  Spike_obs.Trace.with_span "store.retain" @@ fun () ->
  let program = a.Analysis.program in
  let externals = a.Analysis.externals in
  let main_index = main_index program in
  let fingerprint = fingerprinter ~externals program in
  let entries = Hashtbl.create (Program.routine_count program) in
  let offsets = Psg.offsets a.Analysis.psg in
  Program.iter
    (fun r (routine : Routine.t) ->
      let art = Warm.slice a.Analysis.psg offsets r in
      Hashtbl.replace entries routine.Routine.name
        {
          e_fp = fingerprint r routine;
          e_callees = Warm.callee_names program art.a_local;
          e_exported = routine.Routine.exported;
          e_is_main = r = main_index;
          e_decode = fixup_art ~old_program:program ~old_r:r art;
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
