open Spike_isa
open Spike_ir
open Spike_cfg
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

let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Corrupt m)) fmt

(* A cached call target that the current program no longer has.  Not
   corruption when the entry is stale: the edit deleted the callee. *)
exception Vanished of string

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

let write_ending w = function
  | Cfg.Ends_plain -> Codec.write_int w 0
  | Cfg.Ends_call callee ->
      Codec.write_int w 1;
      write_callee w callee
  | Cfg.Ends_ret -> Codec.write_int w 2
  | Cfg.Ends_switch -> Codec.write_int w 3
  | Cfg.Ends_jump_unknown -> Codec.write_int w 4

let read_ending rd =
  match Codec.read_int rd with
  | 0 -> Cfg.Ends_plain
  | 1 -> Cfg.Ends_call (read_callee rd)
  | 2 -> Cfg.Ends_ret
  | 3 -> Cfg.Ends_switch
  | 4 -> Cfg.Ends_jump_unknown
  | t -> corrupt "bad block ending tag %d" t

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

let write_block w (b : Cfg.block) =
  Codec.write_int w b.first;
  Codec.write_int w b.last;
  Codec.write_array Codec.write_int w b.succs;
  Codec.write_array Codec.write_int w b.preds;
  write_ending w b.ending

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

let write_body program w (art : Warm.routine_art) =
  let cfg = art.a_cfg in
  Codec.write_array write_block w cfg.Cfg.blocks;
  Codec.write_list
    (fun w (label, b) ->
      Codec.write_string w label;
      Codec.write_int w b)
    w cfg.Cfg.entry_blocks;
  Codec.write_regset_array w art.a_defuse.Defuse.def;
  Codec.write_regset_array w art.a_defuse.Defuse.ubd;
  Codec.write_regset w art.a_filter;
  write_local program w art.a_local;
  Codec.write_regset_array w art.a_phase1;
  Codec.write_regset_array w art.a_cr;
  Codec.write_regset_array w art.a_phase2

let check_node_id nnodes id =
  if id < 0 || id >= nnodes then corrupt "node id %d out of %d" id nnodes

(* A target missing from the current program decodes as routine -1 and is
   reported, as [Vanished], only once the whole body has decoded: real
   corruption anywhere in the entry takes precedence. *)
let read_body ~routine:(r : int) ~(current : Routine.t) ~resolve body :
    Warm.routine_art =
  let vanished = ref None in
  let resolve name =
    match resolve name with
    | Some r -> r
    | None ->
        if !vanished = None then vanished := Some name;
        -1
  in
  let rd = Codec.reader body in
  let ninsns = Array.length current.Routine.insns in
  let next_block = ref 0 in
  let blocks =
    Codec.read_array
      (fun rd ->
        let id = !next_block in
        incr next_block;
        let first = Codec.read_int rd in
        let last = Codec.read_int rd in
        if first < 0 || last >= ninsns then
          corrupt "block %d spans [%d,%d] of %d insns" id first last ninsns;
        let succs = Codec.read_array Codec.read_int rd in
        let preds = Codec.read_array Codec.read_int rd in
        let ending = read_ending rd in
        { Cfg.id; first; last; succs; preds; ending })
      rd
  in
  let nblocks = Array.length blocks in
  let check_block b = if b < 0 || b >= nblocks then corrupt "block id %d out of %d" b nblocks in
  Array.iter
    (fun (b : Cfg.block) ->
      Array.iter check_block b.succs;
      Array.iter check_block b.preds)
    blocks;
  let block_of_insn = Array.make ninsns 0 in
  Array.iter
    (fun (b : Cfg.block) ->
      for i = b.Cfg.first to b.Cfg.last do
        block_of_insn.(i) <- b.Cfg.id
      done)
    blocks;
  let entry_blocks =
    Codec.read_list
      (fun rd ->
        let label = Codec.read_string rd in
        let b = Codec.read_int rd in
        check_block b;
        (label, b))
      rd
  in
  let cfg = { Cfg.routine = current; blocks; block_of_insn; entry_blocks } in
  let def = Codec.read_regset_array rd in
  let ubd = Codec.read_regset_array rd in
  if Array.length def <> nblocks || Array.length ubd <> nblocks then
    corrupt "DEF/UBD length mismatch";
  let defuse = Defuse.of_arrays ~def ~ubd in
  let filter = Codec.read_regset rd in
  let kinds = Codec.read_array (read_kind ~routine:r) rd in
  let nnodes = Array.length kinds in
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
  Option.iter (fun name -> raise (Vanished name)) !vanished;
  { Warm.a_cfg = cfg; a_defuse = defuse; a_filter = filter; a_local = local;
    a_phase1; a_cr; a_phase2 }

(* --- File format ---------------------------------------------------------

   magic(8) version config_key(16) checksum(8) payload_len payload

   The checksum covers the payload only; the header fields it would guard
   are each checked semantically anyway. *)

type entry = {
  e_fp : string;
  e_exported : bool;
  e_is_main : bool;
  e_callees : string list;
  e_body : string;
}

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
        let e_body = Codec.read_string rd in
        (name, { e_fp; e_exported; e_is_main; e_callees; e_body }))
      rd
  in
  if not (Codec.at_end rd) then corrupt "trailing bytes after entries";
  entries

let degrade ~path ~n reason =
  Spike_obs.Metrics.incr c_degradations;
  Spike_obs.Metrics.add c_misses n;
  Printf.eprintf "spike-store: ignoring %s, falling back to cold run: %s\n%!"
    path reason;
  fun program ->
    { plan = Warm.cold program; hits = 0; misses = n; invalidated = 0;
      degraded = Some reason }

(* One bad entry in a healthy file: counted like a whole-file corruption,
   but only this routine is rebuilt. *)
let undecodable name reason =
  Spike_obs.Metrics.incr c_degradations;
  Printf.eprintf "spike-store: undecodable entry for %s (%s), rebuilding it\n%!" name
    reason

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

let load ~dir ?(branch_nodes = true) ?(externals = fun _ -> None)
    ?(callee_saved_filter = true) program =
  Spike_obs.Trace.with_span "store.load" @@ fun () ->
  let path = Filename.concat dir file_name in
  let n = Program.routine_count program in
  if not (Sys.file_exists path) then begin
    Spike_obs.Metrics.add c_misses n;
    { plan = Warm.cold program; hits = 0; misses = n; invalidated = 0;
      degraded = None }
  end
  else
    let config = Fingerprint.config_key ~branch_nodes ~callee_saved_filter in
    match
      let data = read_file path in
      parse_file ~config data
    with
    | exception Codec.Corrupt reason -> degrade ~path ~n reason program
    | exception Sys_error reason -> degrade ~path ~n reason program
    | entries ->
        let by_name = Hashtbl.create (List.length entries) in
        List.iter (fun (name, e) -> Hashtbl.replace by_name name e) entries;
        let resolve name = Program.find_index program name in
        let plan = Warm.cold program in
        let claimed = Hashtbl.create n in
        let hits = ref 0 and misses = ref 0 and invalidated = ref 0 in
        Program.iter
          (fun r (routine : Routine.t) ->
            match Hashtbl.find_opt by_name routine.name with
            | None -> incr misses
            | Some entry ->
                if
                  String.equal entry.e_fp
                    (Fingerprint.routine ~externals program routine)
                then (
                  match read_body ~routine:r ~current:routine ~resolve entry.e_body with
                  | art ->
                      plan.Warm.arts.(r) <- Some art;
                      Hashtbl.replace claimed routine.name ();
                      incr hits
                  | exception Codec.Corrupt reason ->
                      undecodable routine.name reason;
                      incr invalidated
                  | exception Vanished name ->
                      (* The fingerprint covers call resolution, so a
                         fresh entry cannot name a missing routine. *)
                      undecodable routine.name
                        (Printf.sprintf "call target %S not in program" name);
                      incr invalidated)
                else begin
                  incr invalidated;
                  (* Stale fingerprint: decode anyway as a lift candidate
                     — the edit may have left the equation system intact
                     ({!Warm.solutions}).  Its cached callees re-seed
                     exits only if the lift fails, so it is claimed
                     here. *)
                  match
                    read_body ~routine:r ~current:routine ~resolve entry.e_body
                  with
                  | art ->
                      plan.Warm.donors.(r) <-
                        Some
                          {
                            Warm.d_art = art;
                            d_callees = entry.e_callees;
                            d_exported = entry.e_exported;
                            d_is_main = entry.e_is_main;
                          };
                      Hashtbl.replace claimed routine.name ()
                  | exception Codec.Corrupt reason -> undecodable routine.name reason
                  | exception Vanished _ ->
                      (* The edit deleted a callee: no lift candidate, and
                         nothing wrong with the file. *)
                      ()
                end)
          program;
        (* An entry that is neither reused nor a lift candidate belonged
           to a routine that was edited or deleted: the routines it
           called may have lost a caller, so their exits must re-seed in
           phase 2. *)
        List.iter
          (fun (name, entry) ->
            if not (Hashtbl.mem claimed name) then
              List.iter
                (fun callee ->
                  match resolve callee with
                  | Some r -> plan.Warm.exit_seeds.(r) <- true
                  | None -> ())
                entry.e_callees)
          entries;
        Spike_obs.Metrics.add c_hits !hits;
        Spike_obs.Metrics.add c_misses !misses;
        Spike_obs.Metrics.add c_invalidated !invalidated;
        { plan; hits = !hits; misses = !misses; invalidated = !invalidated;
          degraded = None }

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o777 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ~dir (a : Analysis.t) =
  let arts =
    match a.Analysis.warm_capture with
    | Some arts -> arts
    | None -> invalid_arg "Store.save: analysis was run without ~capture:true"
  in
  Spike_obs.Trace.with_span "store.save" @@ fun () ->
  let program = a.Analysis.program in
  let externals = a.Analysis.externals in
  let main_index =
    match Program.find_index program (Program.main program) with
    | Some i -> i
    | None -> assert false (* guaranteed by Program.make *)
  in
  let payload = Buffer.create (1 lsl 20) in
  Codec.write_int payload (Array.length arts);
  let body_buf = Buffer.create (1 lsl 16) in
  Array.iteri
    (fun r (art : Warm.routine_art) ->
      let routine = Program.get program r in
      Codec.write_string payload routine.Routine.name;
      Codec.write_raw payload (Fingerprint.routine ~externals program routine);
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
    arts;
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
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Buffer.contents header);
      Out_channel.output_string oc payload);
  Sys.rename tmp path

(* --- In-memory sessions ---------------------------------------------------

   The disk path pays a decode cost proportional to the whole artifact
   graph; a resident driver (editor daemon, watch mode) can skip it by
   retaining the previous run's captured artifacts and re-planning against
   the edited program directly.  Reuse is sound because a warm run never
   mutates retained structure: the stitch and the warm restore copy the
   fragments' and artifacts' register-set arrays into the fresh PSG's own
   lanes, and capture slices copies back out. *)

type retained = {
  t_fp : string;
  t_callees : string list;
  t_art : Warm.routine_art;
  t_routine : int;  (* index in the session's program *)
}

type session = {
  s_config : string;
  s_program : Program.t;
  s_entries : (string, retained) Hashtbl.t;
}

let retain (a : Analysis.t) =
  let arts =
    match a.Analysis.warm_capture with
    | Some arts -> arts
    | None -> invalid_arg "Store.retain: analysis was run without ~capture:true"
  in
  Spike_obs.Trace.with_span "store.retain" @@ fun () ->
  let program = a.Analysis.program in
  let externals = a.Analysis.externals in
  let entries = Hashtbl.create (Array.length arts) in
  Array.iteri
    (fun r (art : Warm.routine_art) ->
      let routine = Program.get program r in
      Hashtbl.replace entries routine.Routine.name
        {
          t_fp = Fingerprint.routine ~externals program routine;
          t_callees = Warm.callee_names program art.a_local;
          t_art = art;
          t_routine = r;
        })
    arts;
  {
    s_config =
      Fingerprint.config_key ~branch_nodes:a.Analysis.branch_nodes
        ~callee_saved_filter:a.Analysis.callee_saved_filter;
    s_program = program;
    s_entries = entries;
  }

(* Retained fragments carry routine indices of the session's program;
   node kinds the routine's own index, call targets their callees'.  An
   edit that inserts or deletes a routine shifts both, so they are
   remapped by name — exactly what {!read_body} does for the disk path.
   The common case (indices unchanged) shares the retained arrays
   outright. *)
let rekind ~routine = function
  | Psg.Entry { label; _ } -> Psg.Entry { routine; label }
  | Psg.Exit { block; _ } -> Psg.Exit { routine; block }
  | Psg.Call { block; _ } -> Psg.Call { routine; block }
  | Psg.Return { call_block; block; _ } -> Psg.Return { routine; call_block; block }
  | Psg.Branch { block; _ } -> Psg.Branch { routine; block }
  | Psg.Unknown_exit { block; _ } -> Psg.Unknown_exit { routine; block }

let fixup_art ~old_program ~resolve ~r ~(current : Routine.t) (t : retained) :
    Warm.routine_art =
  let art = t.t_art in
  let remap = function
    | Psg.Target_external _ as tg -> tg
    | Psg.Target_routine old_r -> (
        let name = (Program.get old_program old_r).Routine.name in
        match resolve name with
        | Some nr -> Psg.Target_routine nr
        | None -> raise (Vanished name))
  in
  let target_unmoved = function
    | Psg.Target_external _ -> true
    | Psg.Target_routine old_r -> (
        match resolve (Program.get old_program old_r).Routine.name with
        | Some nr -> nr = old_r
        | None -> false)
  in
  let unmoved =
    t.t_routine = r
    && Array.for_all
         (fun (c : Psg_build.local_call) ->
           match c.lc_targets with
           | None -> true
           | Some targets -> List.for_all target_unmoved targets)
         art.a_local.l_calls
  in
  let a_cfg = { art.a_cfg with Cfg.routine = current } in
  if unmoved then { art with a_cfg }
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
    { art with a_cfg; a_local }

let replan session ?(branch_nodes = true) ?(externals = fun _ -> None)
    ?(callee_saved_filter = true) program =
  Spike_obs.Trace.with_span "store.replan" @@ fun () ->
  let n = Program.routine_count program in
  let config = Fingerprint.config_key ~branch_nodes ~callee_saved_filter in
  if not (String.equal config session.s_config) then begin
    Spike_obs.Metrics.incr c_degradations;
    Spike_obs.Metrics.add c_misses n;
    Printf.eprintf
      "spike-store: retained session has a different analysis \
       configuration, falling back to cold run\n\
       %!";
    {
      plan = Warm.cold program;
      hits = 0;
      misses = n;
      invalidated = 0;
      degraded = Some "analysis configuration mismatch";
    }
  end
  else begin
    let resolve name = Program.find_index program name in
    let old_program = session.s_program in
    let old_main =
      match Program.find_index old_program (Program.main old_program) with
      | Some i -> i
      | None -> assert false (* guaranteed by Program.make *)
    in
    let plan = Warm.cold program in
    let claimed = Hashtbl.create n in
    let hits = ref 0 and misses = ref 0 and invalidated = ref 0 in
    Program.iter
      (fun r (routine : Routine.t) ->
        match Hashtbl.find_opt session.s_entries routine.name with
        | None -> incr misses
        | Some t -> (
            let stale =
              not
                (String.equal t.t_fp
                   (Fingerprint.routine ~externals program routine))
            in
            if stale then incr invalidated;
            (* A stale retained artifact still remaps into a lift
               candidate, mirroring the disk path. *)
            match fixup_art ~old_program ~resolve ~r ~current:routine t with
            | art when not stale ->
                plan.Warm.arts.(r) <- Some art;
                Hashtbl.replace claimed routine.name ();
                incr hits
            | art ->
                plan.Warm.donors.(r) <-
                  Some
                    {
                      Warm.d_art = art;
                      d_callees = t.t_callees;
                      d_exported =
                        (Program.get old_program t.t_routine).Routine.exported;
                      d_is_main = t.t_routine = old_main;
                    };
                Hashtbl.replace claimed routine.name ()
            | exception Vanished _ -> if not stale then incr invalidated))
      program;
    Hashtbl.iter
      (fun name (t : retained) ->
        if not (Hashtbl.mem claimed name) then
          List.iter
            (fun callee ->
              match resolve callee with
              | Some r -> plan.Warm.exit_seeds.(r) <- true
              | None -> ())
            t.t_callees)
      session.s_entries;
    Spike_obs.Metrics.add c_hits !hits;
    Spike_obs.Metrics.add c_misses !misses;
    Spike_obs.Metrics.add c_invalidated !invalidated;
    { plan; hits = !hits; misses = !misses; invalidated = !invalidated;
      degraded = None }
  end
