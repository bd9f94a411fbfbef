(* QCheck property tests: the deep invariants, sampled over random
   generator parameter vectors rather than fixed seeds. *)

open Spike_support
open Spike_ir
open Spike_core
open Spike_synth

(* Arbitrary generator parameters: small programs (the reference oracle is
   O(routines^2)-ish), but with every structural feature dialable. *)
let arbitrary_params =
  let open QCheck.Gen in
  let pfloat_b x = map (fun f -> Float.abs f *. x) (float_bound_inclusive 1.0) in
  let gen =
    int_bound 1_000_000 >>= fun seed ->
    int_range 2 16 >>= fun routines ->
    int_range 100 900 >>= fun target_instructions ->
    pfloat_b 6.0 >>= fun calls_per_routine ->
    pfloat_b 8.0 >>= fun branches_per_routine ->
    pfloat_b 1.0 >>= fun switches_per_routine ->
    int_range 2 8 >>= fun switch_fanout ->
    pfloat_b 1.0 >>= fun switch_loop_prob ->
    pfloat_b 1.0 >>= fun switch_arm_calls ->
    pfloat_b 1.0 >>= fun recursion_prob ->
    pfloat_b 0.3 >>= fun indirect_known_prob ->
    pfloat_b 0.3 >>= fun unknown_call_prob ->
    pfloat_b 1.0 >>= fun save_restore_prob ->
    pfloat_b 1.5 >>= fun loops_per_routine ->
    pfloat_b 0.8 >>= fun loop_call_prob ->
    pfloat_b 0.5 >>= fun spill_prob ->
    pfloat_b 0.2 >>= fun extra_entry_prob ->
    pfloat_b 2.0 >>= fun exits_extra ->
    return
      {
        Params.seed;
        routines;
        target_instructions;
        calls_per_routine;
        branches_per_routine;
        switches_per_routine;
        switch_fanout;
        switch_loop_prob;
        switch_arm_calls;
        exits_per_routine = 1.0 +. exits_extra;
        extra_entry_prob;
        recursion_prob;
        indirect_known_prob;
        unknown_call_prob;
        unknown_jump_prob = 0.0;
        exported_prob = 0.1;
        save_restore_prob;
        loops_per_routine;
        loop_call_prob;
        spill_prob;
        guard_calls = true;
      }
  in
  let print (p : Params.t) =
    Printf.sprintf
      "{seed=%d; routines=%d; insns=%d; calls=%f; branches=%f; switches=%f; \
       fanout=%d; sw_loop=%f; sw_arm=%f; exits=%f; extra_entry=%f; rec=%f; \
       ind=%f; unk=%f; save=%f; loops=%f; loop_call=%f; spill=%f}"
      p.Params.seed p.Params.routines p.Params.target_instructions
      p.Params.calls_per_routine p.Params.branches_per_routine
      p.Params.switches_per_routine p.Params.switch_fanout p.Params.switch_loop_prob
      p.Params.switch_arm_calls p.Params.exits_per_routine p.Params.extra_entry_prob
      p.Params.recursion_prob p.Params.indirect_known_prob p.Params.unknown_call_prob
      p.Params.save_restore_prob p.Params.loops_per_routine p.Params.loop_call_prob
      p.Params.spill_prob
  in
  QCheck.make ~print gen

let class_equal (a : Summary.call_class) (b : Summary.call_class) =
  Regset.equal a.Summary.used b.Summary.used
  && Regset.equal a.Summary.defined b.Summary.defined
  && Regset.equal a.Summary.killed b.Summary.killed

let prop_generated_valid =
  QCheck.Test.make ~name:"generated programs validate" ~count:60 arbitrary_params
    (fun params ->
      match Validate.check (Generator.generate params) with
      | Ok () -> true
      | Error _ -> false)

let prop_psg_equals_reference =
  QCheck.Test.make ~name:"psg analysis = reference fixpoint" ~count:40
    arbitrary_params (fun params ->
      let p = Generator.generate params in
      let analysis = Analysis.run p in
      let reference = Spike_reference.Reference.run p in
      let classes_ok =
        Array.for_all2 class_equal analysis.Analysis.call_classes
          reference.Spike_reference.Reference.call_classes
      in
      let liveness_ok = ref true in
      Array.iteri
        (fun r (s : Summary.t) ->
          (match s.Summary.live_at_entry with
          | (_, live) :: _ ->
              if
                not
                  (Regset.equal live
                     reference.Spike_reference.Reference.live_at_entry.(r))
              then liveness_ok := false
          | [] -> ());
          List.iter
            (fun (block, live) ->
              match
                List.assoc_opt block
                  reference.Spike_reference.Reference.live_at_exit.(r)
              with
              | Some expected -> if not (Regset.equal live expected) then liveness_ok := false
              | None -> liveness_ok := false)
            s.Summary.live_at_exit)
        analysis.Analysis.summaries;
      classes_ok && !liveness_ok)

let prop_branch_nodes_invariant =
  QCheck.Test.make ~name:"branch nodes never change the solution" ~count:40
    arbitrary_params (fun params ->
      let p = Generator.generate params in
      let a = Analysis.run ~branch_nodes:true p in
      let b = Analysis.run ~branch_nodes:false p in
      Array.for_all2 class_equal a.Analysis.call_classes b.Analysis.call_classes)

let prop_asm_roundtrip =
  QCheck.Test.make ~name:"assembly print/parse roundtrip" ~count:60 arbitrary_params
    (fun params ->
      let p = Generator.generate params in
      let text = Spike_asm.Printer.to_string p in
      let p' = Spike_asm.Parser.program_of_string text in
      String.equal text (Spike_asm.Printer.to_string p'))

(* The cursor parser against the line-list oracle it replaced: the same
   program, or an error at the same line. *)
let line_parse text =
  match Test_helpers.Line_parser.program_of_string text with
  | p -> Ok p
  | exception Test_helpers.Line_parser.Error { line; _ } -> Error line

let cursor_parse text =
  match Spike_asm.Parser.program_of_string text with
  | p -> Ok p
  | exception Spike_asm.Parser.Error { line; _ } -> Error line

let same_parse text =
  match (cursor_parse text, line_parse text) with
  | Ok a, Ok b ->
      String.equal (Spike_asm.Printer.to_string a) (Spike_asm.Printer.to_string b)
      || QCheck.Test.fail_reportf "parsers build different programs from:\n%s" text
  | Error a, Error b ->
      a = b
      || QCheck.Test.fail_reportf "the cursor parser fails at line %d, the line parser at %d:\n%s"
           a b text
  | Ok _, Error _ -> QCheck.Test.fail_reportf "only the cursor parser accepts:\n%s" text
  | Error _, Ok _ -> QCheck.Test.fail_reportf "only the line parser accepts:\n%s" text

let prop_cursor_equals_line_parser =
  QCheck.Test.make ~name:"cursor parser = line parser" ~count:40
    (QCheck.triple arbitrary_params QCheck.bool QCheck.bool)
    (fun (params, guard_calls, unknown_jumps) ->
      let unknown_jump_prob = if unknown_jumps then 0.3 else 0.0 in
      let p = Generator.generate { params with Params.guard_calls; unknown_jump_prob } in
      let text = Spike_asm.Printer.to_string p in
      Result.is_ok (cursor_parse text) && same_parse text)

(* Seeded damage to a program's text: byte flips (to the syntax's own
   characters or to any byte), a deleted or duplicated line, and
   truncation, one to three at a time. *)
let stray_tokens = [| "ra"; "t0"; "r5"; "$31"; ","; "7"; "-1"; "("; ")"; "["; "]"; ":"; ".end"; "x" |]

let edit_line text i edit =
  String.split_on_char '\n' text
  |> List.mapi (fun j line -> if j = i then edit line else [ line ])
  |> List.concat |> String.concat "\n"

let line_count text = List.length (String.split_on_char '\n' text)

let damage g text =
  let alphabet = "abtsvr$0159-_.,:()[]{}=# \t\r\n" in
  let step text =
    let n = String.length text in
    match Prng.int g 4 with
    | 0 when n > 0 ->
        let b = Bytes.of_string text in
        Bytes.set b (Prng.int g n)
          (if Prng.bool g then alphabet.[Prng.int g (String.length alphabet)]
           else Char.chr (Prng.int g 256));
        Bytes.to_string b
    | 1 -> edit_line text (Prng.int g (line_count text)) (fun _ -> [])
    | 2 -> edit_line text (Prng.int g (line_count text)) (fun line -> [ line; line ])
    | _ -> String.sub text 0 (Prng.int g (n + 1))
  in
  let rec go k text = if k = 0 then text else go (k - 1) (step text) in
  go (1 + Prng.int g 3) text

(* Both parsers accept damaged text, or both reject it at the same line;
   and every line of a program, with one stray token appended, in turn. *)
let prop_damaged_text_same_verdict =
  QCheck.Test.make ~name:"cursor parser = line parser on damaged text" ~count:50
    (QCheck.pair (QCheck.int_bound 1_000_000) QCheck.bool) (fun (seed, unknown_jumps) ->
      let g = Prng.create seed in
      let p =
        Generator.generate
          {
            Params.default with
            Params.seed;
            routines = 3;
            target_instructions = 60;
            unknown_jump_prob = (if unknown_jumps then 0.3 else 0.0);
            guard_calls = not unknown_jumps;
          }
      in
      let text = Spike_asm.Printer.to_string p in
      let stray line =
        [ line ^ " " ^ stray_tokens.(Prng.int g (Array.length stray_tokens)) ]
      in
      List.for_all (fun _ -> same_parse (damage g text)) (List.init 30 Fun.id)
      && List.for_all
           (fun i -> same_parse (edit_line text i stray))
           (List.init (line_count text) Fun.id))

let prop_opt_preserves_outcome =
  QCheck.Test.make ~name:"optimizations preserve the exit status" ~count:25
    arbitrary_params (fun params ->
      let p = Generator.generate params in
      let optimized, _ = Spike_opt.Opt.run (Analysis.run p) in
      match
        ( Spike_interp.Machine.execute ~fuel:2_000_000 p,
          Spike_interp.Machine.execute ~fuel:2_000_000 optimized )
      with
      | Spike_interp.Machine.Halted a, Spike_interp.Machine.Halted b -> a = b
      | Spike_interp.Machine.Trapped Spike_interp.Machine.Out_of_fuel,
        Spike_interp.Machine.Trapped Spike_interp.Machine.Out_of_fuel ->
          true
      | _, _ -> false)

(* Dead-code elimination converges each routine's cascade under fixed
   summaries; it must remove exactly what one round per re-analysis does. *)
let prop_cascade_equals_rounds =
  QCheck.Test.make ~name:"cascade = round-by-round" ~count:25 arbitrary_params
    (fun params ->
      let p = Generator.generate params in
      let optimized, report = Spike_opt.Opt.run (Analysis.run p) in
      let oracle, removed = Test_helpers.Round_dce.optimize (Analysis.run p) in
      let print = Spike_asm.Printer.to_string in
      (print optimized = print oracle && report.Spike_opt.Opt.dead_instructions_removed = removed)
      || QCheck.Test.fail_reportf "cascade removed %d, rounds %d"
           report.Spike_opt.Opt.dead_instructions_removed removed)

(* Flow-edge labels come from one Figure-6 solve per sink block; they must
   equal the per-edge construction's, with and without branch nodes and
   with guarded and unguarded calls. *)
let labels_match_oracle p =
  let check branch_nodes =
    match Test_helpers.Label_oracle.mismatches ~branch_nodes p with
    | [] -> true
    | problems ->
        QCheck.Test.fail_reportf "branch_nodes=%b: %s" branch_nodes
          (String.concat "; " problems)
  in
  check true && check false

let prop_labels_match_oracle =
  QCheck.Test.make ~name:"flow-edge labels = per-edge oracle" ~count:40
    (QCheck.pair arbitrary_params QCheck.bool) (fun (params, guard_calls) ->
      labels_match_oracle
        (Generator.generate { params with Params.guard_calls }))

(* [Sched.make] builds exactly the list-based schedule it replaced
   ([Test_helpers.Sched_oracle]), with guarded and unguarded calls and
   with branch nodes on and off. *)
let prop_sched_matches_oracle =
  QCheck.Test.make ~name:"schedule = list-based schedule oracle" ~count:40
    (QCheck.triple arbitrary_params QCheck.bool QCheck.bool)
    (fun (params, guard_calls, branch_nodes) ->
      let p = Generator.generate { params with Params.guard_calls } in
      let psg = (Analysis.run ~jobs:1 ~branch_nodes p).Analysis.psg in
      match Test_helpers.Sched_oracle.mismatches psg (Sched.make psg) with
      | [] -> true
      | fields -> QCheck.Test.fail_reportf "differs in %s" (String.concat ", " fields))

(* The same on small instances of the switch-dense calibrated shapes
   (Table 4 edge reduction of 10% or more). *)
let arbitrary_switch_dense =
  let rows =
    List.filter
      (fun (r : Calibrate.paper_row) -> r.Calibrate.edge_reduction_pct >= 10.0)
      Calibrate.benchmarks
  in
  let open QCheck.Gen in
  let gen =
    pair (oneofl rows) (int_bound 1_000_000) >|= fun (row, seed) ->
    let scale = Float.min 0.05 (40.0 /. float_of_int row.Calibrate.routines) in
    (row.Calibrate.name, { (Calibrate.params_of ~scale row) with Params.seed })
  in
  let print (name, (p : Params.t)) = Printf.sprintf "%s seed=%d" name p.Params.seed in
  QCheck.make ~print gen

let prop_calibrated_labels_match_oracle =
  QCheck.Test.make ~name:"calibrated flow-edge labels = per-edge oracle" ~count:20
    arbitrary_switch_dense (fun (_, params) ->
      labels_match_oracle (Generator.generate params))

(* The lane CFG and its DEF/UBD against the record oracle, on random
   programs (with unknown jumps, which [arbitrary_params] leaves out) and
   on the four paper-scale shapes at scale 0.05 under a random seed. *)
let arbitrary_cfg_programs =
  let calibrated =
    List.filter_map Calibrate.find [ "gcc"; "vortex"; "acad"; "winword" ]
  in
  let open QCheck.Gen in
  let random =
    pair (QCheck.gen arbitrary_params) (float_bound_inclusive 0.3)
    >|= fun (params, unknown_jump_prob) ->
    ("random", { params with Params.unknown_jump_prob; guard_calls = false })
  in
  let paper =
    pair (oneofl calibrated) (int_bound 1_000_000) >|= fun (row, seed) ->
    (row.Calibrate.name, { (Calibrate.params_of ~scale:0.05 row) with Params.seed })
  in
  let print (name, (p : Params.t)) = Printf.sprintf "%s seed=%d" name p.Params.seed in
  QCheck.make ~print (frequency [ (3, random); (1, paper) ])

let prop_cfg_lanes_match_records =
  QCheck.Test.make ~name:"lane CFG = record CFG oracle" ~count:40 arbitrary_cfg_programs
    (fun (_, params) ->
      let p = Generator.generate params in
      match
        List.concat_map
          (fun r ->
            let g = Spike_cfg.Cfg.build r in
            Test_helpers.Record_cfg.mismatches g (Spike_cfg.Defuse.compute g))
          (Array.to_list (Program.routines p))
      with
      | [] -> true
      | problem :: _ -> QCheck.Test.fail_reportf "%s" problem)

(* The per-run readers are exactly the transposes of the PSG's forward
   lanes: each node's in-edges ascending by edge id, each with the source
   node whose out-edge row holds it, and each routine's callers ascending
   by call index, one entry per target-row occurrence.  The expected rows
   are lists built by a plain scan of the edges and of the target rows. *)
let prop_readers_transpose =
  QCheck.Test.make ~name:"readers = transposed forward lanes" ~count:40
    arbitrary_cfg_programs (fun (_, params) ->
      let p = Generator.generate params in
      let psg = (Analysis.run ~jobs:1 p).Analysis.psg in
      let readers = Readers.make psg in
      let n = Psg.node_count psg and nr = Program.routine_count p in
      let ins = Array.make n [] in
      for u = n - 1 downto 0 do
        for e = psg.Psg.out_off.(u + 1) - 1 downto psg.Psg.out_off.(u) do
          let d = psg.Psg.dst.(e) in
          ins.(d) <- (e, u) :: ins.(d)
        done
      done;
      let callers = Array.make nr [] in
      for c = Psg.call_count psg - 1 downto 0 do
        for i = psg.Psg.target_off.(c + 1) - 1 downto psg.Psg.target_off.(c) do
          let x = psg.Psg.targets.(i) in
          if x >= 0 then callers.(x) <- c :: callers.(x)
        done
      done;
      let row (t : Readers.t) v =
        List.init
          (t.in_off.(v + 1) - t.in_off.(v))
          (fun k -> (t.in_edge.(t.in_off.(v) + k), t.in_src.(t.in_off.(v) + k)))
      in
      Array.length readers.in_off = n + 1
      && Array.length readers.callers_off = nr + 1
      && List.for_all (fun v -> row readers v = ins.(v)) (List.init n Fun.id)
      && List.for_all (fun r -> Readers.callers readers r = callers.(r)) (List.init nr Fun.id)
      && readers.in_off.(n) = Psg.edge_count psg)

(* Each phase's influence relation, which the drivers re-mark and the
   warm planners close their cones under, is exactly the transpose of the
   dependency graph whose SCCs order the schedule
   ([Test_helpers.Sched_oracle.deps]): the readers it names for node [v],
   with multiplicity, are the nodes whose dependency rows list [v].  Each
   reader comes with its link: an out-edge of the reader into [v], or a
   call whose call node is the reader (phase 1) or whose return node is
   [v] (phase 2). *)
let prop_influence_transposes_deps =
  QCheck.Test.make ~name:"influence = transposed dependency graph" ~count:40
    arbitrary_cfg_programs (fun (_, params) ->
      let p = Generator.generate params in
      let psg = (Analysis.run ~jobs:1 p).Analysis.psg in
      let readers = Readers.make psg in
      let n = Psg.node_count psg in
      let deps1, deps2 = Test_helpers.Sched_oracle.deps psg in
      let edge_ok v via u =
        psg.Psg.dst.(via) = v && psg.Psg.out_off.(u) <= via && via < psg.Psg.out_off.(u + 1)
      in
      let check name influence deps link_ok =
        let want = Array.make n [] in
        Array.iteri (fun u row -> Array.iter (fun v -> want.(v) <- u :: want.(v)) row) deps;
        let differs v =
          let got = ref [] and links = ref true in
          influence psg readers v (fun via u ->
              got := u :: !got;
              if not (if via >= 0 then edge_ok v via u else link_ok v (-1 - via) u) then
                links := false);
          (not !links) || List.sort Int.compare !got <> List.sort Int.compare want.(v)
        in
        match List.find_opt differs (List.init n Fun.id) with
        | None -> true
        | Some v -> QCheck.Test.fail_reportf "%s: node %d's readers differ" name v
      in
      check "phase 1" Phase1.influence deps1 (fun _ c u -> psg.Psg.call_node.(c) = u)
      && check "phase 2" Phase2.influence deps2 (fun v c _ -> Psg.return_node psg c = v))

(* External-summary files must round-trip through their concrete syntax:
   the sets are rebuilt from rendered register names, so this exercises
   name/of_name agreement for every register that can carry dataflow,
   empty sets, and inputs that list the same register more than once
   (sets collapse them).  The hardwired zeros are left out: a file may
   name them, but they are dropped on parsing. *)
let arbitrary_summaries =
  let open QCheck.Gen in
  let reg =
    oneofl (List.filter (fun r -> not (Spike_isa.Reg.is_zero r)) Spike_isa.Reg.all)
  in
  let regset =
    (* duplicates on purpose: [of_list] must collapse them *)
    map Regset.of_list (list_size (int_bound 8) reg)
  in
  let entry i =
    map3
      (fun used defined killed ->
        (Printf.sprintf "ext_%d" i, { Psg.x_used = used; x_defined = defined; x_killed = killed }))
      regset regset regset
  in
  let gen =
    int_bound 8 >>= fun n ->
    let rec go i = if i >= n then return [] else
      entry i >>= fun e -> map (fun rest -> e :: rest) (go (i + 1))
    in
    go 0
  in
  let print entries = Spike_asm.Summaries.to_string entries in
  QCheck.make ~print gen

(* The one-pass §3.4 detector finds exactly the sites of the rescanning
   one, on the same random and paper-shape programs as the CFG lanes. *)
let prop_callee_saved_one_pass =
  QCheck.Test.make ~name:"callee-saved sites = rescanning oracle" ~count:40
    arbitrary_cfg_programs (fun (_, params) ->
      let program = Generator.generate params in
      Program.iter
        (fun _ (routine : Routine.t) ->
          let cfg = Spike_cfg.Cfg.build routine in
          if
            Callee_saved.sites routine cfg
            <> Test_helpers.Callee_saved_oracle.sites routine cfg
          then QCheck.Test.fail_reportf "%s: sites differ" routine.Routine.name)
        program;
      true)

let prop_summaries_roundtrip =
  QCheck.Test.make ~name:"external summaries print/parse roundtrip" ~count:200
    arbitrary_summaries (fun entries ->
      let again =
        Spike_asm.Summaries.of_string (Spike_asm.Summaries.to_string entries)
      in
      List.length entries = List.length again
      && List.for_all2
           (fun (n1, (c1 : Psg.external_class)) (n2, (c2 : Psg.external_class)) ->
             String.equal n1 n2
             && Regset.equal c1.Psg.x_used c2.Psg.x_used
             && Regset.equal c1.Psg.x_defined c2.Psg.x_defined
             && Regset.equal c1.Psg.x_killed c2.Psg.x_killed)
           entries again)

let prop_dynamic_soundness =
  QCheck.Test.make ~name:"summaries sound on executions" ~count:25 arbitrary_params
    (fun params ->
      let p = Generator.generate params in
      let analysis = Analysis.run p in
      let _, violations = Spike_interp.Oracle.check ~fuel:2_000_000 analysis in
      violations = [])

let () =
  Alcotest.run "properties"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_generated_valid;
            prop_psg_equals_reference;
            prop_branch_nodes_invariant;
            prop_labels_match_oracle;
            prop_calibrated_labels_match_oracle;
            prop_cfg_lanes_match_records;
            prop_readers_transpose;
            prop_influence_transposes_deps;
            prop_callee_saved_one_pass;
            prop_sched_matches_oracle;
            prop_asm_roundtrip;
            prop_cursor_equals_line_parser;
            prop_damaged_text_same_verdict;
            prop_summaries_roundtrip;
            prop_opt_preserves_outcome;
            prop_cascade_equals_rounds;
            prop_dynamic_soundness;
          ] );
    ]
