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

(* The cursor parser against the line-list oracle it replaced. *)
let line_parse text =
  match Test_helpers.Line_parser.program_of_string text with
  | p -> Some p
  | exception Test_helpers.Line_parser.Error _ -> None

let cursor_parse text =
  match Spike_asm.Parser.program_of_string text with
  | p -> Some p
  | exception Spike_asm.Parser.Error _ -> None

let same_parse text =
  match (cursor_parse text, line_parse text) with
  | Some a, Some b ->
      String.equal (Spike_asm.Printer.to_string a) (Spike_asm.Printer.to_string b)
      || QCheck.Test.fail_reportf "parsers build different programs from:\n%s" text
  | None, None -> true
  | Some _, None -> QCheck.Test.fail_reportf "only the cursor parser accepts:\n%s" text
  | None, Some _ -> QCheck.Test.fail_reportf "only the line parser accepts:\n%s" text

let prop_cursor_equals_line_parser =
  QCheck.Test.make ~name:"cursor parser = line parser" ~count:40
    (QCheck.triple arbitrary_params QCheck.bool QCheck.bool)
    (fun (params, guard_calls, unknown_jumps) ->
      let unknown_jump_prob = if unknown_jumps then 0.3 else 0.0 in
      let p = Generator.generate { params with Params.guard_calls; unknown_jump_prob } in
      let text = Spike_asm.Printer.to_string p in
      Option.is_some (cursor_parse text) && same_parse text)

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

(* Both parsers accept or both reject damaged text; and every line of a
   program, with one stray token appended, in turn. *)
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
            prop_asm_roundtrip;
            prop_cursor_equals_line_parser;
            prop_damaged_text_same_verdict;
            prop_summaries_roundtrip;
            prop_opt_preserves_outcome;
            prop_dynamic_soundness;
          ] );
    ]
