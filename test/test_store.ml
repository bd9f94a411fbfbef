(* The persistent summary store: incremental equivalence and robustness.

   The store's one hard guarantee is that a warm-started analysis is
   bit-identical to a cold one — whatever was edited between the runs,
   whatever the parallelism degree, and whatever state the store file is
   in.  The equivalence tests sweep a mutation matrix (edit a body, add a
   call edge, remove a call edge, add/delete a routine, change an
   external summary) over synthetic programs at jobs 1 and 4, comparing
   the rendered summaries byte for byte, on both the disk path
   (save/load) and the in-memory path (retain/replan).  The robustness
   tests corrupt the file every way the header guards against and expect
   a counted, non-fatal degradation to a cold plan. *)

open Spike_support
open Spike_isa
open Spike_ir
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

let test_disk_equivalence () =
  let program = gen () in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run ~jobs:1 ~capture:true program);
  List.iter
    (fun (name, mutate) ->
      let mutated = mutate program in
      List.iter
        (fun jobs ->
          let cold = Analysis.run ~jobs mutated in
          let loaded = Store.load ~dir mutated in
          Alcotest.(check (option string))
            (name ^ ": not degraded") None loaded.Store.degraded;
          let warm = Analysis.run ~jobs ~warm:loaded.Store.plan mutated in
          Alcotest.(check string)
            (Printf.sprintf "%s: warm = cold at jobs=%d" name jobs)
            (render cold) (render warm))
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
  let session = Store.retain (Analysis.run ~jobs:1 ~capture:true program) in
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
  Store.save ~dir (Analysis.run ~jobs:1 ~capture:true program);
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
  Store.save ~dir (Analysis.run ~externals:ext_a ~capture:true ext_program);
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

(* --- Robustness ----------------------------------------------------------- *)

let degradations () =
  match Spike_obs.Metrics.find (Spike_obs.Metrics.snapshot ()) "store.degradations" with
  | Some (Spike_obs.Metrics.Count n) -> n
  | _ -> 0

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
  Store.save ~dir (Analysis.run ~capture:true program);
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
   dirty that one routine, count a degradation and raise nothing. *)
let test_bit63_word () =
  let program = gen ~seed:47 () in
  let n = Program.routine_count program in
  let cold = Analysis.run program in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run ~capture:true program);
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
  Alcotest.(check string) "still correct" (render cold) (render warm)

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
     all-cold plan, capture-only and a plain run are the same cold run. *)
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
          ("capture", Analysis.run ~jobs:1 ~capture:true p);
          ("Warm.cold", Analysis.run ~jobs:1 ~warm:(Warm.cold p) p);
          ("missing store", Analysis.run ~jobs:1 ~warm:(Store.load ~dir p).Store.plan p);
        ])
    [ ("figure2", figure2_program ()); ("synth", program) ]

let test_save_is_atomic () =
  (* A save must leave no temp droppings next to the store. *)
  let program = gen ~seed:46 () in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  Store.save ~dir (Analysis.run ~capture:true program);
  let siblings = Sys.readdir dir in
  Alcotest.(check (array string)) "only the store file" [| Store.file_name |] siblings

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
        ] );
      ( "robustness",
        [
          Alcotest.test_case "corrupt files degrade to cold" `Slow test_robustness;
          Alcotest.test_case "register word with bit 63 degrades" `Quick test_bit63_word;
          Alcotest.test_case "missing store is a plain cold start" `Quick
            test_missing_store_is_cold;
          Alcotest.test_case "save leaves no temp files" `Quick test_save_is_atomic;
        ] );
    ]
