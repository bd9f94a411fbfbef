(* The persistent summary store: incremental equivalence and robustness.

   The store's one hard guarantee is that a warm-started analysis is
   bit-identical to a cold one — whatever was edited between the runs,
   whatever the parallelism degree, and whatever state the store file is
   in.  The equivalence tests sweep a mutation matrix (edit a body, add a
   call edge, remove a call edge, add/delete a routine, change an
   external summary) over synthetic programs at jobs 1 and 4, comparing
   the rendered summaries byte for byte, on both the disk path
   (save/load) and the in-memory path (retain/replan), and check that the
   CFGs and DEF/UBD sets, which the store does not keep, come back exactly
   as a cold build makes them.  The robustness tests corrupt the file
   every way the header guards against and expect a counted, non-fatal
   degradation to a cold plan. *)

open Spike_support
open Spike_isa
open Spike_ir
open Spike_cfg
open Spike_core
open Spike_synth
open Spike_store
open Test_helpers

let jobs_matrix = [ 1; 4 ]

let gen ?(seed = 42) () =
  Generator.generate
    { Params.default with Params.seed; routines = 24; target_instructions = 1200 }

let render (a : Analysis.t) =
  Format.asprintf "%a"
    (fun ppf summaries ->
      Array.iter (fun s -> Format.fprintf ppf "%a@." Summary.pp s) summaries)
    a.Analysis.summaries

(* Fresh store directory per test; the suite runs from a sandboxed cwd. *)
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Printf.sprintf "store-test-%d-%d" (Unix.getpid ()) !dir_counter

let store_path dir = Filename.concat dir Store.file_name

let cleanup dir =
  (try Sys.remove (store_path dir) with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ()

(* --- The mutation matrix ------------------------------------------------- *)

let remake program routines =
  Program.make ~main:(Program.main program) (Array.to_list routines)

(* Replace instruction [i] of routine [r]. *)
let replace_insn program ~r ~i insn =
  let routines = Array.copy (Program.routines program) in
  let insns = Array.copy routines.(r).Routine.insns in
  insns.(i) <- insn;
  routines.(r) <- { (routines.(r)) with Routine.insns };
  remake program routines

let find_insn program p =
  let found = ref None in
  Program.iter
    (fun r (routine : Routine.t) ->
      if !found = None then
        Array.iteri
          (fun i insn -> if !found = None && p insn then found := Some (r, i))
          routine.Routine.insns)
    program;
  match !found with
  | Some ri -> ri
  | None -> Alcotest.fail "mutation matrix: no matching instruction in program"

let edit_body program =
  let r, i =
    find_insn program (function Insn.Li _ -> true | _ -> false)
  in
  match (Program.get program r).Routine.insns.(i) with
  | Insn.Li { dst; imm } -> replace_insn program ~r ~i (Insn.Li { dst; imm = imm + 1 })
  | _ -> assert false

let remove_call_edge program =
  let r, i =
    find_insn program (function
      | Insn.Call { callee = Insn.Direct _ } -> true
      | _ -> false)
  in
  replace_insn program ~r ~i Insn.Nop

let add_call_edge program =
  let target = (Program.get program (Program.routine_count program - 1)).Routine.name in
  let r, i =
    find_insn program (function Insn.Li _ -> true | _ -> false)
  in
  replace_insn program ~r ~i (call target)

(* Prepending a routine shifts every index in the program — the cached
   fragments' routine and call-target indices are all stale and must be
   remapped by name. *)
let add_routine program =
  let extra =
    Routine.make ~name:"aaa_store_test_pad" ~entries:[ "aaa_store_test_pad" ]
      ~labels:[ ("aaa_store_test_pad", 0) ]
      [| li r0 7; ret |]
  in
  Program.make ~main:(Program.main program)
    (extra :: Array.to_list (Program.routines program))

(* Deleting a called routine turns its callers' direct calls unknown
   (fingerprints change) and orphans its own entry — whose recorded
   callees must still re-seed their exits. *)
let delete_routine program =
  let r, _ =
    find_insn program (function
      | Insn.Call { callee = Insn.Direct _ } -> true
      | _ -> false)
  in
  let victim =
    match (Program.get program r).Routine.insns |> Array.find_map (function
            | Insn.Call { callee = Insn.Direct name } when name <> Program.main program
              -> Some name
            | _ -> None)
    with
    | Some name -> name
    | None -> Alcotest.fail "mutation matrix: no deletable callee"
  in
  Program.make ~main:(Program.main program)
    (List.filter
       (fun (r : Routine.t) -> not (String.equal r.Routine.name victim))
       (Array.to_list (Program.routines program)))

let mutations =
  [
    ("identity", fun p -> p);
    ("edit body", edit_body);
    ("remove call edge", remove_call_edge);
    ("add call edge", add_call_edge);
    ("add routine", add_routine);
    ("delete routine", delete_routine);
  ]

(* --- Incremental equivalence --------------------------------------------- *)

(* Artifacts carry no CFG: [Analysis.cfg] builds a reused routine's on
   first demand, and a rerun hands each unchanged routine the previous
   result's entry, forced or not.  Either way it must be the cold build. *)
let check_front tag (a : Analysis.t) =
  Program.iter
    (fun r (routine : Routine.t) ->
      let what w = Printf.sprintf "%s: %s of %s" tag w routine.Routine.name in
      let got = Analysis.cfg a r in
      Alcotest.(check bool) (what "CFG of this routine") true (got.Cfg.routine == routine);
      Alcotest.(check (list string)) (what "CFG and DEF/UBD") []
        (Test_helpers.Record_cfg.mismatches got (Analysis.defuse a r)))
    a.Analysis.program

(* [a] and a three-step rerun chain from it.  The chain is built before
   any CFG is asked for, so its last step inherits unforced entries. *)
let check_front_chain tag (a : Analysis.t) =
  let chain =
    List.fold_left
      (fun acc (step, mutate) ->
        let prev = snd (List.hd acc) in
        (step, Analysis.rerun prev (mutate prev.Analysis.program)) :: acc)
      [ ("warm", a) ]
      [ ("rerun 1", edit_body); ("rerun 2", add_call_edge); ("rerun 3", remove_call_edge) ]
  in
  List.iter (fun (step, a) -> check_front (tag ^ ", " ^ step) a) chain

let degradations () =
  match Spike_obs.Metrics.find (Spike_obs.Metrics.snapshot ()) "store.degradations" with
  | Some (Spike_obs.Metrics.Count n) -> n
  | _ -> 0

let test_disk_equivalence () =
  let program = gen () in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run ~jobs:1 program);
  List.iter
    (fun (name, mutate) ->
      let mutated = mutate program in
      List.iter
        (fun jobs ->
          let cold = Analysis.run ~jobs mutated in
          Spike_obs.Metrics.enable ();
          let loaded = Store.load ~dir mutated in
          let counted = degradations () in
          Spike_obs.Metrics.disable ();
          Alcotest.(check (option string))
            (name ^ ": not degraded") None loaded.Store.degraded;
          (* A stale entry naming a callee the edit deleted is no
             corruption: it is dropped silently. *)
          Alcotest.(check int) (name ^ ": no degradation counted") 0 counted;
          let warm = Analysis.run ~jobs ~warm:loaded.Store.plan mutated in
          let tag = Printf.sprintf "%s at jobs=%d" name jobs in
          Alcotest.(check string) (tag ^ ": warm = cold") (render cold) (render warm);
          check_front_chain tag warm)
        jobs_matrix;
      (* Every mutation except the identity must dirty something. *)
      let loaded = Store.load ~dir mutated in
      if String.equal name "identity" then begin
        Alcotest.(check int)
          "identity: all hits"
          (Program.routine_count program)
          loaded.Store.hits;
        Alcotest.(check int) "identity: no invalidations" 0 loaded.Store.invalidated
      end
      else
        Alcotest.(check bool)
          (name ^ ": dirties at least one routine")
          true
          (loaded.Store.invalidated + loaded.Store.misses > 0))
    mutations

let test_memory_equivalence () =
  let program = gen ~seed:43 () in
  let session = Store.retain (Analysis.run ~jobs:1 program) in
  List.iter
    (fun (name, mutate) ->
      let mutated = mutate program in
      List.iter
        (fun jobs ->
          let cold = Analysis.run ~jobs mutated in
          let replanned = Store.replan session mutated in
          Alcotest.(check (option string))
            (name ^ ": not degraded") None replanned.Store.degraded;
          let warm = Analysis.run ~jobs ~warm:replanned.Store.plan mutated in
          let tag what = Printf.sprintf "%s: %s at jobs=%d" name what jobs in
          Alcotest.(check string) (tag "replan warm = cold") (render cold) (render warm);
          check_front_chain (Printf.sprintf "%s at jobs=%d" name jobs) warm;
          (* The schedule is built on demand: exactly when some phase has
             a non-empty cone, i.e. re-converges anything at all. *)
          let iterations = warm.Analysis.phase1_iterations + warm.Analysis.phase2_iterations in
          Alcotest.(check bool)
            (tag "schedule built iff a cone is non-empty")
            (iterations > 0)
            (List.mem_assoc Analysis.stage_sched (Timer.stages warm.Analysis.timer));
          if String.equal name "identity" then
            Alcotest.(check int) (tag "no edit re-converges nothing") 0 iterations)
        jobs_matrix)
    mutations;
  (* A session retained under one configuration refuses to warm another. *)
  let off = Store.replan session ~branch_nodes:false program in
  Alcotest.(check bool) "config mismatch degrades" true (off.Store.degraded <> None);
  let warm = Analysis.run ~branch_nodes:false ~warm:off.Store.plan program in
  Alcotest.(check string)
    "degraded replan still sound"
    (render (Analysis.run ~branch_nodes:false program))
    (render warm)

(* The PSG's lanes are flat arrays, and the retained artifacts are slices
   of them: a warm run that shared an artifact's array with the PSG
   instead of copying would let phase 1 (call-return labels) or the warm
   restore write into retained state, and a rerun that shares the
   previous PSG's shape lanes must not write them either.  Two replan
   rounds and a rerun chain from one session must leave its artifacts
   (as an unchanged program's replan hands them out) and the PSG they
   were sliced from bit-identical. *)
let test_retained_immutable () =
  let program = gen ~seed:48 () in
  let a = Analysis.run ~jobs:1 program in
  let session = Store.retain a in
  let digest () =
    let arts = (Store.replan session program).Store.plan.Warm.arts in
    Digest.string (Marshal.to_string (arts, a.Analysis.psg) [])
  in
  let before = digest () in
  List.iter
    (fun mutate ->
      let p = mutate program in
      let replanned = Store.replan session p in
      ignore (Analysis.run ~jobs:1 ~warm:replanned.Store.plan p))
    [ edit_body; remove_call_edge ];
  ignore
    (List.fold_left
       (fun prev mutate -> Analysis.rerun prev (mutate prev.Analysis.program))
       a
       [ edit_body; add_call_edge; remove_call_edge ]);
  Alcotest.(check string) "retained artifacts unchanged" (Digest.to_hex before)
    (Digest.to_hex (digest ()))

(* --- Solution lifting ----------------------------------------------------- *)

let counter snapshot name =
  match Spike_obs.Metrics.find snapshot name with
  | Some (Spike_obs.Metrics.Count n) -> n
  | _ -> 0

(* The donor fast path: a body edit that keeps the equation system intact
   must lift the stale entry's cached solutions, while a call-shape edit
   must fall back to the honest cone. *)
let test_solution_lift () =
  let program = gen ~seed:47 () in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run ~jobs:1 program);
  let check_lift name mutate expect =
    let mutated = mutate program in
    let loaded = Store.load ~dir mutated in
    Alcotest.(check bool)
      (name ^ ": stale entry kept as donor") true
      (Array.exists (fun d -> d <> None) loaded.Store.plan.Warm.donors);
    Spike_obs.Metrics.enable ();
    let warm = Analysis.run ~jobs:1 ~warm:loaded.Store.plan mutated in
    let n = counter (Spike_obs.Metrics.snapshot ()) "warm.solutions.lifted" in
    Spike_obs.Metrics.disable ();
    Alcotest.(check int) (name ^ ": lift count") expect n;
    Alcotest.(check string)
      (name ^ ": warm = cold")
      (render (Analysis.run ~jobs:1 mutated))
      (render warm)
  in
  check_lift "edit body" edit_body 1;
  check_lift "remove call edge" remove_call_edge 0

(* --- External summaries -------------------------------------------------- *)

let ext_class killed =
  { Psg.x_used = rs [ Reg.a0 ]; x_defined = rs [ Reg.v0 ]; x_killed = killed }

let ext_program =
  let helper =
    Routine.make ~name:"helper" ~entries:[ "helper" ] ~labels:[ ("helper", 0) ]
      [| call "memcpy"; ret |]
  in
  let main =
    Routine.make ~name:"main" ~entries:[ "main" ] ~labels:[ ("main", 0) ]
      [| call "helper"; li r0 0; ret |]
  in
  Program.make ~main:"main" [ main; helper ]

let test_external_change () =
  let ext_a name = if name = "memcpy" then Some (ext_class (rs [ Reg.v0 ])) else None in
  let ext_b name =
    if name = "memcpy" then Some (ext_class (rs [ Reg.v0; Reg.t0 ])) else None
  in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run ~externals:ext_a ext_program);
  (* Same externals: everything hits. *)
  let same = Store.load ~dir ~externals:ext_a ext_program in
  Alcotest.(check int) "same externals hit" 2 same.Store.hits;
  (* Changed external class: the transitively affected routine re-runs and
     the result matches a cold analysis under the new environment. *)
  let loaded = Store.load ~dir ~externals:ext_b ext_program in
  Alcotest.(check bool) "changed external invalidates" true (loaded.Store.invalidated >= 1);
  let cold = Analysis.run ~externals:ext_b ext_program in
  let warm = Analysis.run ~externals:ext_b ~warm:loaded.Store.plan ext_program in
  Alcotest.(check string) "warm = cold under new externals" (render cold) (render warm);
  let killed =
    (Summary.find warm.Analysis.summaries ext_program "helper" |> Option.get)
      .Summary.call_class.Summary.killed
  in
  Alcotest.(check bool) "new killed set visible through the call" true
    (Regset.mem Reg.t0 killed)

(* One [spike analyze --store] run fingerprints each routine once: [save]
   and [retain] reuse the digests the planner computed for the physically
   same program, environment and routine, and fingerprint anything else
   afresh — so a store saved across a program or environment switch still
   plans all hits afterwards. *)
let test_fingerprint_once () =
  let fingerprints () =
    match Spike_obs.Metrics.find (Spike_obs.Metrics.snapshot ()) "store.fingerprints" with
    | Some (Spike_obs.Metrics.Count n) -> n
    | _ -> 0
  in
  let counted f =
    Spike_obs.Metrics.enable ();
    Fun.protect ~finally:Spike_obs.Metrics.disable (fun () ->
        f ();
        fingerprints ())
  in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  let p = gen () in
  let n = Program.routine_count p in
  Alcotest.(check int) "a cold save fingerprints every routine" n
    (counted (fun () -> Store.save ~dir (Analysis.run p)));
  let via_store program () =
    let loaded = Store.load ~dir program in
    Store.save ~dir (Analysis.run ~warm:loaded.Store.plan program)
  in
  Alcotest.(check int) "load fingerprints, save reuses" n (counted (via_store p));
  let edited = edit_body p in
  Alcotest.(check int) "after an edit too" n (counted (via_store edited));
  Alcotest.(check int) "all hits after the edit" n (Store.load ~dir edited).Store.hits;
  (* Planned for [edited], saved for [p]: a different program, although
     all but one routine is physically shared. *)
  Alcotest.(check int) "another program is fingerprinted afresh" (2 * n)
    (counted (fun () ->
         ignore (Store.load ~dir edited);
         Store.save ~dir (Analysis.run p)));
  Alcotest.(check int) "all hits for that program" n (Store.load ~dir p).Store.hits;
  let session = Store.retain (Analysis.run p) in
  Alcotest.(check int) "retain reuses replan's digests" n
    (counted (fun () ->
         let replanned = Store.replan session edited in
         ignore
           (Store.retain (Analysis.run ~warm:replanned.Store.plan edited))));
  (* The same program under another environment. *)
  let ext_a name = if name = "memcpy" then Some (ext_class (rs [ Reg.v0 ])) else None in
  let ext_b name =
    if name = "memcpy" then Some (ext_class (rs [ Reg.v0; Reg.t0 ])) else None
  in
  let m = Program.routine_count ext_program in
  Store.save ~dir (Analysis.run ~externals:ext_a ext_program);
  Alcotest.(check int) "another environment is fingerprinted afresh" (2 * m)
    (counted (fun () ->
         ignore (Store.load ~dir ~externals:ext_a ext_program);
         Store.save ~dir (Analysis.run ~externals:ext_b ext_program)));
  Alcotest.(check int) "all hits under that environment" m
    (Store.load ~dir ~externals:ext_b ext_program).Store.hits

(* --- Robustness ----------------------------------------------------------- *)

let corrupt_cases =
  [
    (* magic(8) version(1) config(16) checksum(8)... *)
    ("truncated", fun data -> String.sub data 0 (String.length data / 2));
    ( "bit-flipped payload",
      fun data ->
        let b = Bytes.of_string data in
        let i = String.length data / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        Bytes.to_string b );
    ( "wrong version",
      fun data ->
        let b = Bytes.of_string data in
        (* zigzag varint of [format_version + 1] still fits one byte *)
        Bytes.set b 8 (Char.chr ((Fingerprint.format_version + 1) * 2));
        Bytes.to_string b );
    ( "previous version",
      fun data ->
        let b = Bytes.of_string data in
        Bytes.set b 8 (Char.chr ((Fingerprint.format_version - 1) * 2));
        Bytes.to_string b );
    ( "wrong config",
      fun data ->
        let b = Bytes.of_string data in
        Bytes.set b 9 (Char.chr (Char.code (Bytes.get b 9) lxor 0x01));
        Bytes.to_string b );
    ("empty file", fun _ -> "");
    ("wrong magic", fun data -> "NOTSTORE" ^ String.sub data 8 (String.length data - 8));
  ]

let test_robustness () =
  let program = gen ~seed:44 () in
  let cold = Analysis.run program in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run program);
  let pristine = In_channel.with_open_bin (store_path dir) In_channel.input_all in
  List.iter
    (fun (name, corrupt) ->
      Out_channel.with_open_bin (store_path dir) (fun oc ->
          Out_channel.output_string oc (corrupt pristine));
      Spike_obs.Metrics.enable ();
      let loaded = Store.load ~dir program in
      let counted = degradations () in
      Spike_obs.Metrics.disable ();
      Alcotest.(check bool) (name ^ ": degraded") true (loaded.Store.degraded <> None);
      Alcotest.(check int) (name ^ ": counted") 1 counted;
      Alcotest.(check int) (name ^ ": no hits") 0 loaded.Store.hits;
      Alcotest.(check int)
        (name ^ ": all misses")
        (Program.routine_count program)
        loaded.Store.misses;
      (* The degraded plan is an honest cold plan. *)
      let warm = Analysis.run ~warm:loaded.Store.plan program in
      Alcotest.(check string) (name ^ ": still correct") (render cold) (render warm))
    corrupt_cases;
  (* And a healthy file degrades nothing. *)
  Out_channel.with_open_bin (store_path dir) (fun oc ->
      Out_channel.output_string oc pristine);
  Spike_obs.Metrics.enable ();
  let loaded = Store.load ~dir program in
  let snapshot = Spike_obs.Metrics.snapshot () in
  Spike_obs.Metrics.disable ();
  Alcotest.(check (option string)) "healthy: not degraded" None loaded.Store.degraded;
  Alcotest.(check (option bool))
    "healthy: hits counted"
    (Some true)
    (Option.map
       (fun v -> v = Spike_obs.Metrics.Count (Program.routine_count program))
       (Spike_obs.Metrics.find snapshot "store.load.hits"))

(* A register-set word with bit 63 set cannot come from the writer —
   register 63 is outside the universe — so it is corruption even under a
   valid checksum.  The file's last eight bytes are the last routine's
   last phase-2 set; setting its top bit and re-sealing the checksum
   (magic(8) version(1) config(16) checksum(8) payload_len payload) must
   dirty that one routine, count a degradation and raise nothing —
   whether the entry is fresh or stale (its routine edited too, so it
   is decoded only as a lift candidate). *)
let edit_last program =
  let r = Program.routine_count program - 1 in
  let insns = (Program.get program r).Routine.insns in
  match Array.find_index (function Insn.Li _ -> true | _ -> false) insns with
  | Some i -> (
      match insns.(i) with
      | Insn.Li { dst; imm } ->
          replace_insn program ~r ~i (Insn.Li { dst; imm = imm + 1 })
      | _ -> assert false)
  | None -> Alcotest.fail "bit 63: the last routine has no li to edit"

let test_bit63_word () =
  let program = gen ~seed:47 () in
  let n = Program.routine_count program in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run program);
  let data = In_channel.with_open_bin (store_path dir) In_channel.input_all in
  let b = Bytes.of_string data in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lor 0x80));
  let payload_pos =
    (* the payload length is a varint after the checksum *)
    let rec skip i =
      if Char.code (Bytes.get b i) land 0x80 = 0 then i + 1 else skip (i + 1)
    in
    skip 33
  in
  let sum =
    Codec.checksum (Bytes.unsafe_to_string b) ~pos:payload_pos
      ~len:(Bytes.length b - payload_pos)
  in
  Bytes.set_int64_le b 25 sum;
  Out_channel.with_open_bin (store_path dir) (fun oc -> Out_channel.output_bytes oc b);
  List.iter
    (fun (name, p) ->
      let tag what = name ^ ": " ^ what in
      Spike_obs.Metrics.enable ();
      let loaded = Store.load ~dir p in
      let counted = degradations () in
      Spike_obs.Metrics.disable ();
      Alcotest.(check int) (tag "counted") 1 counted;
      Alcotest.(check (option string)) (tag "the file as a whole is healthy") None
        loaded.Store.degraded;
      Alcotest.(check int) (tag "one routine rebuilt") 1 loaded.Store.invalidated;
      Alcotest.(check int) (tag "the rest reused") (n - 1) loaded.Store.hits;
      let warm = Analysis.run ~warm:loaded.Store.plan p in
      Alcotest.(check string) (tag "still correct") (render (Analysis.run p)) (render warm))
    [ ("fresh entry", program); ("stale entry", edit_last program) ]

(* Block ids inside cached node kinds index the routine's CFG when a
   consumer rebuilds it (the optimizer does).  A checksum-valid store whose
   call node names a block past the routine's end must dirty that one
   routine and count a degradation; the optimizer then runs on a correct
   warm analysis instead of failing on the CFG lookup. *)
let test_block_out_of_range () =
  let program = gen ~seed:49 () in
  let n = Program.routine_count program in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  let a = Analysis.run program in
  let kinds = a.Analysis.psg.Psg.kinds in
  (match Array.find_index (fun k -> Psg.Kind.tag k = Psg.Kind.call) kinds with
  | Some i ->
      kinds.(i) <-
        Psg.Kind.in_routine (Psg.Kind.routine kinds.(i))
          (Psg.Kind.pack ~tag:Psg.Kind.call ~block:100_000)
  | None -> Alcotest.fail "block ids: the program has no call node");
  Store.save ~dir a;
  Spike_obs.Metrics.enable ();
  let loaded = Store.load ~dir program in
  let counted = degradations () in
  Spike_obs.Metrics.disable ();
  Alcotest.(check int) "counted" 1 counted;
  Alcotest.(check (option string)) "the file as a whole is healthy" None
    loaded.Store.degraded;
  Alcotest.(check int) "one routine rebuilt" 1 loaded.Store.invalidated;
  Alcotest.(check int) "the rest reused" (n - 1) loaded.Store.hits;
  let warm = Analysis.run ~warm:loaded.Store.plan program in
  Alcotest.(check string) "still correct" (render (Analysis.run program)) (render warm);
  match Spike_opt.Opt.run warm with
  | _ -> ()
  | exception e -> Alcotest.failf "Opt.run raised %s" (Printexc.to_string e)

(* --- Fuzzing ---------------------------------------------------------------

   Seeded mutations of a valid store: truncated at a random byte, one bit
   flipped (anywhere, or in one of an entry body's int runs),
   or one entry replaced by an entry of another program's store.  Each
   mutated payload is re-sealed — length and checksum rewritten — so the
   decoder itself meets the damage.  [Store.load] must never raise and
   must count a degradation for an entry it cannot decode; a plan from a
   damaged file must analyse without raising.  A mutated entry that still
   decodes may give wrong values (a fresh entry is trusted by design), but
   a spliced entry is stale, so that plan must give the cold result. *)

let calibrated name scale =
  let row = Option.get (Calibrate.find name) in
  Generator.generate (Calibrate.params_of ~scale row)

(* [prefix] is magic, version and configuration key; the checksum and the
   payload length follow it. *)
let unseal data =
  let rd = Codec.reader data in
  ignore (Codec.read_raw rd 8);
  ignore (Codec.read_int rd);
  ignore (Codec.read_raw rd 16);
  let prefix = String.sub data 0 (Codec.pos rd) in
  ignore (Codec.read_raw rd 8);
  let len = Codec.read_int rd in
  (prefix, String.sub data (Codec.pos rd) len)

let seal prefix payload =
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b prefix;
  let sum = Bytes.create 8 in
  Bytes.set_int64_le sum 0 (Codec.checksum payload ~pos:0 ~len:(String.length payload));
  Buffer.add_bytes b sum;
  Codec.write_int b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Each entry's byte span in the payload, and its body's span. *)
let entry_spans payload =
  let rd = Codec.reader payload in
  let n = Codec.read_int rd in
  let spans = ref [] in
  for _ = 1 to n do
    let start = Codec.pos rd in
    ignore (Codec.read_string rd);
    ignore (Codec.read_raw rd 16);
    ignore (Codec.read_bool rd);
    ignore (Codec.read_bool rd);
    ignore (Codec.read_list Codec.read_string rd);
    let len = Codec.read_int rd in
    let body = Codec.pos rd in
    ignore (Codec.read_raw rd len);
    spans := (start, Codec.pos rd, body) :: !spans
  done;
  Array.of_list (List.rev !spans)

(* The byte spans of an entry body's int runs: kinds, out-degrees and
   destinations, then target counts and targets (see {!Store}). *)
let int_runs payload (_, stop, body) =
  let rd = Codec.reader ~pos:body ~len:(stop - body) payload in
  ignore (Codec.read_regset rd);
  let first = Codec.pos rd in
  let nn = Codec.read_int rd in
  let kinds = Array.init nn (fun _ -> 0) in
  for i = 0 to nn - 1 do
    kinds.(i) <- Codec.read_int rd
  done;
  let ne = ref 0 in
  for _ = 1 to nn do
    ne := !ne + Codec.read_int rd
  done;
  for _ = 1 to !ne do
    ignore (Codec.read_int rd)
  done;
  let nodes_end = Codec.pos rd in
  let nc = Array.fold_left (fun n k -> if Psg.Kind.tag k = Psg.Kind.call then n + 1 else n) 0 kinds in
  ignore (Codec.read_raw rd (8 * ((3 * !ne) + (2 * nc))));
  let calls = Codec.pos rd in
  let nt = ref 0 in
  for _ = 1 to nc do
    nt := !nt + Codec.read_int rd
  done;
  for _ = 1 to !nt do
    ignore (Codec.read_int rd)
  done;
  [ (first, nodes_end); (calls, Codec.pos rd) ]

let stored_payload program =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run ~jobs:1 program);
  In_channel.with_open_bin (store_path dir) In_channel.input_all

(* What the phases and the stitch index with a decoded artifact's ids
   must lie in range, whatever the entry held. *)
let well_formed program r (art : Warm.routine_art) =
  match art with
  | Warm.Rows _ -> true
  | Warm.Slice s ->
      let l = s.a_local in
      let nn = Array.length l.l_kinds and nc = Array.length l.l_call_def in
      let entries = List.length (Program.get program r).Routine.entries in
      let node x = x >= 0 && x < nn in
      Array.for_all
        (fun k ->
          let tag = Psg.Kind.tag k in
          tag < Psg.Kind.count && (tag <> Psg.Kind.entry || Psg.Kind.block k < entries))
        l.l_kinds
      && Array.for_all node l.l_src && Array.for_all node l.l_dst
      && Array.length l.l_callee = nc
      && Array.length l.l_target_off = nc + 1
      && l.l_target_off.(nc) = Array.length l.l_targets
      && Array.for_all
           (fun x ->
             if x >= 0 then x < Program.routine_count program
             else -1 - x < Array.length l.l_externals)
           l.l_targets

type damage = Truncated | Flipped of int (* the entry whose body holds the bit *) | Other | Spliced

let test_fuzz () =
  let program = calibrated "gcc" 0.05 in
  let n = Program.routine_count program in
  let cold = render (Analysis.run ~jobs:1 program) in
  let prefix, payload = unseal (stored_payload program) in
  let _, other = unseal (stored_payload (calibrated "vortex" 0.05)) in
  let spans = entry_spans payload and other_spans = entry_spans other in
  let rng = Random.State.make [| 2026 |] in
  let flip at =
    let b = Bytes.of_string payload in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl Random.State.int rng 8)));
    Bytes.to_string b
  in
  let mutate i =
    match i mod 5 with
    | 0 -> (Truncated, String.sub payload 0 (Random.State.int rng (String.length payload)))
    | 1 ->
        let at = Random.State.int rng (String.length payload) in
        let inside (_, stop, body) = at >= body && at < stop in
        let damage =
          match Array.find_index inside spans with Some e -> Flipped e | None -> Other
        in
        (damage, flip at)
    | 2 | 3 ->
        (* A bit of one of an entry's ids: node, kind, entry position or
           target. *)
        let e = Random.State.int rng (Array.length spans) in
        let runs = int_runs payload spans.(e) in
        let len = List.fold_left (fun n (a, b) -> n + b - a) 0 runs in
        let rec locate k = function
          | (a, b) :: rest -> if k < b - a then a + k else locate (k - (b - a)) rest
          | [] -> assert false
        in
        (Flipped e, flip (locate (Random.State.int rng len) runs))
    | _ ->
        let start, stop, _ = spans.(Random.State.int rng (Array.length spans)) in
        let ostart, ostop, _ = other_spans.(Random.State.int rng (Array.length other_spans)) in
        ( Spliced,
          String.sub payload 0 start
          ^ String.sub other ostart (ostop - ostart)
          ^ String.sub payload stop (String.length payload - stop) )
  in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Unix.mkdir dir 0o777;
  for i = 0 to 599 do
    let damage, mutated = mutate i in
    let tag what = Printf.sprintf "mutation %d: %s" i what in
    Out_channel.with_open_bin (store_path dir) (fun oc ->
        Out_channel.output_string oc (seal prefix mutated));
    Spike_obs.Metrics.enable ();
    let loaded =
      match Store.load ~dir program with
      | loaded -> loaded
      | exception e -> Alcotest.failf "%s" (tag ("load raised " ^ Printexc.to_string e))
    in
    let counted = degradations () in
    Spike_obs.Metrics.disable ();
    let plan = loaded.Store.plan in
    Array.iteri
      (fun r art ->
        Option.iter
          (fun art ->
            if not (well_formed program r art) then
              Alcotest.failf "%s" (tag (Printf.sprintf "routine %d decoded out of range" r)))
          art)
      plan.Warm.arts;
    (match damage with
    | Truncated ->
        Alcotest.(check bool) (tag "truncated file degraded") true
          (loaded.Store.degraded <> None && counted = 1)
    | Flipped e ->
        (* Names, fingerprints and callee tables are intact: the damaged
           entry is reused as decoded, or counted; the rest are reused. *)
        let damaged = (Program.get program e).Routine.name in
        Program.iter
          (fun r (routine : Routine.t) ->
            if routine.Routine.name <> damaged && plan.Warm.arts.(r) = None then
              Alcotest.failf "%s" (tag (routine.Routine.name ^ " not reused")))
          program;
        if loaded.Store.hits < n then
          Alcotest.(check bool) (tag "undecodable entry counted") true (counted >= 1)
    | Other | Spliced -> ());
    if loaded.Store.degraded = None then
      Alcotest.(check int) (tag "every routine accounted for") n
        (loaded.Store.hits + loaded.Store.invalidated + loaded.Store.misses);
    match Analysis.run ~jobs:1 ~warm:plan program with
    | warm ->
        if damage = Spliced || damage = Truncated then
          Alcotest.(check string) (tag "stale entries give the cold result") cold (render warm)
    | exception e -> Alcotest.failf "%s" (tag ("analysis raised " ^ Printexc.to_string e))
  done

let test_missing_store_is_cold () =
  let program = gen ~seed:45 () in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Spike_obs.Metrics.enable ();
  let loaded = Store.load ~dir program in
  let counted = degradations () in
  Spike_obs.Metrics.disable ();
  Alcotest.(check (option string)) "missing file is not a degradation" None
    loaded.Store.degraded;
  Alcotest.(check int) "no degradation counted" 0 counted;
  Alcotest.(check int) "all misses" (Program.routine_count program) loaded.Store.misses;
  (* Every run goes through one pipeline: the plan of a missing store, the
     all-cold plan, the ignored [~capture] and a plain run are the same
     cold run. *)
  List.iter
    (fun (name, p) ->
      let cold = Analysis.run ~jobs:1 p in
      let dump (a : Analysis.t) = Format.asprintf "%a" Psg.pp a.Analysis.psg in
      List.iter
        (fun (how, (a : Analysis.t)) ->
          let tag what = Printf.sprintf "%s, %s: %s" name how what in
          Alcotest.(check string) (tag "PSG") (dump cold) (dump a);
          Alcotest.(check string) (tag "summaries") (render cold) (render a);
          Alcotest.(check int) (tag "phase 1 iterations")
            cold.Analysis.phase1_iterations a.Analysis.phase1_iterations;
          Alcotest.(check int) (tag "phase 2 iterations")
            cold.Analysis.phase2_iterations a.Analysis.phase2_iterations;
          Alcotest.(check int) (tag "nothing reused") 0 a.Analysis.reused_routines)
        [
          ("capture (ignored)", Analysis.run ~jobs:1 ~capture:true p);
          ("Warm.cold", Analysis.run ~jobs:1 ~warm:(Warm.cold p) p);
          ("missing store", Analysis.run ~jobs:1 ~warm:(Store.load ~dir p).Store.plan p);
        ])
    [ ("figure2", figure2_program ()); ("synth", program) ]

let test_save_is_atomic () =
  (* A save must leave no temp droppings next to the store. *)
  let program = gen ~seed:46 () in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run program);
  let siblings = Sys.readdir dir in
  Alcotest.(check (array string)) "only the store file" [| Store.file_name |] siblings

(* An unusable store directory: [save] raises [Sys_error] and leaves no
   temp file behind — not next to a regular file named as the directory,
   nor inside a directory whose store path is taken by a directory (the
   rename fails after the temp file was written). *)
let test_save_unusable_dir () =
  let a = Analysis.run (gen ~seed:46 ()) in
  let file = fresh_dir () in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc "not a directory");
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Unix.mkdir (store_path dir) 0o755;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      Unix.rmdir (store_path dir);
      Unix.rmdir dir)
  @@ fun () ->
  let temps d =
    List.filter
      (fun f -> String.starts_with ~prefix:("." ^ Store.file_name ^ ".tmp") f)
      (Array.to_list (Sys.readdir d))
  in
  List.iter
    (fun (target, parent) ->
      (match Store.save ~dir:target a with
      | () -> Alcotest.failf "%s: save succeeded" target
      | exception Sys_error _ -> ());
      Alcotest.(check (list string)) (target ^ ": no temp file") [] (temps parent))
    [ (file, "."); (Filename.concat file "sub", "."); (dir, dir) ];
  Alcotest.(check string) "the file is untouched" "not a directory"
    (In_channel.with_open_bin file In_channel.input_all)

(* The payload checksum is part of store format 5: these values were
   computed by the original closure-based FNV-1a loop and must not move.
   The loop keeps its accumulator unboxed, so a checksum allocates only
   its boxed result, whatever the payload's length. *)
let test_checksum_pinned () =
  let payload = String.init 1003 (fun i -> Char.chr (((i * 131) + 7) land 255)) in
  let check name expected s ~pos ~len =
    Alcotest.(check int64) name expected (Codec.checksum s ~pos ~len)
  in
  check "1003 bytes" 3133835552049020022L payload ~pos:0 ~len:1003;
  check "997 bytes at 5" 1727170351816277305L payload ~pos:5 ~len:997;
  check "empty" (-3750763034362895579L) "" ~pos:0 ~len:0;
  check "tail only" (-8418817000979330187L) "spike" ~pos:0 ~len:5;
  let big = String.make (1 lsl 20) 'x' in
  let before = Gc.minor_words () in
  let sum = Codec.checksum big ~pos:0 ~len:(String.length big) in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity sum);
  if words > 64.0 then Alcotest.failf "checksum of 1 MiB allocated %.0f words" words

let () =
  Alcotest.run "store"
    [
      ( "equivalence",
        [
          Alcotest.test_case "disk: mutation matrix, jobs 1 and 4" `Slow
            test_disk_equivalence;
          Alcotest.test_case "memory: mutation matrix, jobs 1 and 4" `Slow
            test_memory_equivalence;
          Alcotest.test_case "solution lift fires only when exact" `Quick
            test_solution_lift;
          Alcotest.test_case "external summary change" `Quick test_external_change;
          Alcotest.test_case "retained artifacts stay immutable" `Quick
            test_retained_immutable;
          Alcotest.test_case "one fingerprint per routine and run" `Quick
            test_fingerprint_once;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "corrupt files degrade to cold" `Slow test_robustness;
          Alcotest.test_case "register word with bit 63 degrades" `Quick test_bit63_word;
          Alcotest.test_case "seeded store mutations never raise" `Slow test_fuzz;
          Alcotest.test_case "block id past the routine degrades" `Quick
            test_block_out_of_range;
          Alcotest.test_case "missing store is a plain cold start" `Quick
            test_missing_store_is_cold;
          Alcotest.test_case "save leaves no temp files" `Quick test_save_is_atomic;
          Alcotest.test_case "save to an unusable directory raises Sys_error" `Quick
            test_save_unusable_dir;
          Alcotest.test_case "payload checksum pinned, allocation-free" `Quick
            test_checksum_pinned;
        ] );
    ]
