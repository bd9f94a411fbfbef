(* Shared helpers for the test suites. *)

open Spike_support
open Spike_isa
open Spike_ir

let regset_testable =
  Alcotest.testable (Regset.pp ~name:Reg.name) Regset.equal

let check_regset = Alcotest.check regset_testable

(* Check equality of a set restricted to the registers of interest — the
   paper's examples speak only about abstract registers R0..R3, while our
   IR adds real [ra]/[sp] traffic around calls and returns. *)
let check_restricted msg ~over expected actual =
  check_regset msg expected (Regset.inter actual over)

let rs = Regset.of_list

(* A CFG's entry blocks as (label, block) pairs, in [routine.entries]
   order, read through {!Spike_cfg.Cfg.entry_block}. *)
let entry_blocks (g : Spike_cfg.Cfg.t) =
  List.mapi (fun i label -> (label, Spike_cfg.Cfg.entry_block g i)) g.routine.Routine.entries

(* PSG edge accessors over the flat lanes.  An edge is a call-return edge
   exactly when its source is a call node. *)
let edge_label (psg : Spike_core.Psg.t) e =
  {
    Spike_core.Edge_dataflow.may_use = psg.labels.(3 * e);
    may_def = psg.labels.((3 * e) + 1);
    must_def = psg.labels.((3 * e) + 2);
  }

(* An edge's source node: edges are numbered by source, so it is the last
   node whose out-edge row starts at or before [e] (empty rows share their
   start with the next row). *)
let edge_source (psg : Spike_core.Psg.t) e =
  let lo = ref 0 and hi = ref (Spike_core.Psg.node_count psg - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if psg.out_off.(mid) <= e then lo := mid else hi := mid - 1
  done;
  !lo

let is_flow_edge (psg : Spike_core.Psg.t) e =
  match Spike_core.Psg.kind psg (edge_source psg e) with
  | Spike_core.Psg.Call _ -> false
  | Entry _ | Exit _ | Return _ | Branch _ | Unknown_exit _ -> true

(* Edge ids whose source lies in routine [r] ([None]: every routine). *)
let edges_of ?routine (psg : Spike_core.Psg.t) =
  List.filter
    (fun e ->
      match routine with
      | None -> true
      | Some r -> Spike_core.Psg.routine_of_node psg (edge_source psg e) = r)
    (List.init (Spike_core.Psg.edge_count psg) Fun.id)

(* Every routine's CFG and DEF/UBD of an analysis, as the arrays that
   [Supercfg] and [Psg_build.build] take. *)
let cfgs_of (a : Spike_core.Analysis.t) =
  Array.init (Spike_ir.Program.routine_count a.program) (Spike_core.Analysis.cfg a)

let defuses_of (a : Spike_core.Analysis.t) =
  Array.init (Spike_ir.Program.routine_count a.program) (Spike_core.Analysis.defuse a)

(* Instruction shorthands used throughout the tests.  Registers R0..R3 of
   the paper's examples map to v0, t0, t1, t2. *)
let r0 = Reg.v0
let r1 = Reg.t0
let r2 = Reg.t1
let r3 = Reg.t2

let li dst imm = Insn.Li { dst; imm }
let mov ~src ~dst = Insn.Mov { dst; src }
let add dst src1 src2 = Insn.Binop { op = Insn.Add; dst; src1; src2 = Insn.Reg src2 }
let load dst ~base ~offset = Insn.Load { dst; base; offset }
let store src ~base ~offset = Insn.Store { src; base; offset }
let use r = store r ~base:Reg.sp ~offset:0 (* an instruction that only reads [r] *)
let br target = Insn.Br { target }
let beq src target = Insn.Bcond { cond = Insn.Eq; src; target }
let bne src target = Insn.Bcond { cond = Insn.Ne; src; target }
let switch index table = Insn.Switch { index; table = Array.of_list table }
let call name = Insn.Call { callee = Insn.Direct name }
let call_indirect ?targets reg = Insn.Call { callee = Insn.Indirect (reg, targets) }
let ret = Insn.Ret

(* Assemble a routine from (label option, insn) rows. *)
let routine ?exported ?entries name rows =
  let labels = ref [] and insns = ref [] in
  List.iteri
    (fun i (label, insn) ->
      (match label with Some l -> labels := (l, i) :: !labels | None -> ());
      insns := insn :: !insns)
    rows;
  let entries =
    match entries with
    | Some e -> e
    | None ->
        let l = name ^ "$entry" in
        labels := (l, 0) :: !labels;
        [ l ]
  in
  Routine.make ?exported ~name ~entries ~labels:(List.rev !labels)
    (Array.of_list (List.rev !insns))

let program ~main routines =
  let p = Program.make ~main routines in
  (match Validate.check p with
  | Ok () -> ()
  | Error problems ->
      Alcotest.failf "test program ill-formed:@ %s" (String.concat "; " problems));
  p

(* The paper's Figure 2 example: P1 and P3 both call P2.
   P1: defines R0 and R1, calls P2, uses R0 afterwards.
   P2: uses R1, defines R2 on both arms of a diamond, R3 on one arm.
   P3: defines R1, calls P2.
   main calls P1 and P3. *)
let figure2_program () =
  let p1 =
    routine "P1"
      [ (None, li r0 1); (None, li r1 2); (None, call "P2"); (None, use r0); (None, ret) ]
  in
  let p2 =
    routine "P2"
      [
        (None, bne r1 "P2_right");
        (None, li r2 5);
        (None, li r3 7);
        (None, br "P2_join");
        (Some "P2_right", li r2 9);
        (Some "P2_join", ret);
      ]
  in
  let p3 = routine "P3" [ (None, li r1 3); (None, call "P2"); (None, ret) ] in
  let main = routine "main" [ (None, call "P1"); (None, call "P3"); (None, ret) ] in
  program ~main:"main" [ main; p1; p2; p3 ]

(* Mutually recursive even/odd with a conditional escape: main calls even,
   even and odd call each other, and each base case defines one of R2/R3. *)
let even_odd_program () =
  let even =
    routine "even"
      [
        (None, beq r1 "base");
        (None, call "odd");
        (None, ret);
        (Some "base", li r2 1);
        (None, ret);
      ]
  in
  let odd =
    routine "odd"
      [
        (None, beq r1 "base");
        (None, call "even");
        (None, ret);
        (Some "base", li r3 1);
        (None, ret);
      ]
  in
  let main = routine "main" [ (None, call "even"); (None, ret) ] in
  program ~main:"main" [ main; even; odd ]

(* --- Per-edge label oracle ------------------------------------------------ *)

(* The paper's Figure-6 construction, one flow-summary edge at a time: for
   every (source, sink) pair, the edge's subgraph is the source's cut-free
   forward reach intersected with the sink's cut-free backward reach, and
   the dataflow is solved on that subgraph alone.  The PSG builder solves
   once per sink over the whole backward region instead; this oracle is
   what its labels must equal.  Deliberately naive: boolean membership
   arrays, block-order sweeps, no shared state between edges. *)
module Label_oracle = struct
  open Spike_cfg
  open Spike_core

  type edge = {
    src : Psg.node_kind;
    dst : Psg.node_kind;
    label : Edge_dataflow.sets;
    subgraph : int list;  (** the edge's blocks, ascending *)
  }

  let label_equal (a : Edge_dataflow.sets) (b : Edge_dataflow.sets) =
    Regset.equal a.may_use b.may_use
    && Regset.equal a.may_def b.may_def
    && Regset.equal a.must_def b.must_def

  (* Flow edges of routine [r] in the builder's emission order: sources
     in entry-then-block order, each source's sinks in depth-first
     discovery order. *)
  let flow_edges ~branch_nodes r (cfg : Cfg.t) defuse =
    let nblocks = Cfg.block_count cfg in
    let sink_of_block = Array.make nblocks None in
    (* (node, first block, paths start after the block's instructions) *)
    let sources = ref [] in
    List.iter
      (fun (label, block) ->
        sources := (Psg.Entry { routine = r; label }, block, false) :: !sources)
      (entry_blocks cfg);
    for b = 0 to nblocks - 1 do
      match Cfg.ending cfg b with
      | Cfg.Ends_ret -> sink_of_block.(b) <- Some (Psg.Exit { routine = r; block = b })
      | Cfg.Ends_jump_unknown ->
          sink_of_block.(b) <- Some (Psg.Unknown_exit { routine = r; block = b })
      | Cfg.Ends_call ->
          let return_block = (Cfg.succs cfg b).(0) in
          sink_of_block.(b) <- Some (Psg.Call { routine = r; block = b });
          sources :=
            (Psg.Return { routine = r; call_block = b; block = return_block },
             return_block, false)
            :: !sources
      | Cfg.Ends_switch when branch_nodes ->
          let node = Psg.Branch { routine = r; block = b } in
          sink_of_block.(b) <- Some node;
          sources := (node, b, true) :: !sources
      | Cfg.Ends_switch | Cfg.Ends_plain -> ()
    done;
    let is_cut b = Option.is_some sink_of_block.(b) in
    let forward (block, after) =
      let seen = Array.make nblocks false and sinks = ref [] in
      let rec visit b =
        if not seen.(b) then begin
          seen.(b) <- true;
          if is_cut b then sinks := b :: !sinks
          else Array.iter visit (Cfg.succs cfg b)
        end
      in
      if after then Array.iter visit (Cfg.succs cfg block) else visit block;
      (seen, List.rev !sinks)
    in
    let backward sink =
      let seen = Array.make nblocks false in
      let rec visit b =
        if not seen.(b) then begin
          seen.(b) <- true;
          Array.iter (fun p -> if not (is_cut p) then visit p) (Cfg.preds cfg b)
        end
      in
      visit sink;
      seen
    in
    let solve ~inside ~sink =
      let ins = Array.make nblocks Edge_dataflow.top_must in
      let out_of b =
        if b = sink then Edge_dataflow.empty
        else
          Array.fold_left
            (fun acc s -> if inside.(s) then Edge_dataflow.join acc ins.(s) else acc)
            Edge_dataflow.top_must (Cfg.succs cfg b)
      in
      let changed = ref true in
      while !changed do
        changed := false;
        for b = 0 to nblocks - 1 do
          if inside.(b) then begin
            let next =
              Edge_dataflow.apply_block ~def:(Defuse.def defuse b)
                ~ubd:(Defuse.ubd defuse b) (out_of b)
            in
            if not (label_equal next ins.(b)) then begin
              ins.(b) <- next;
              changed := true
            end
          end
        done
      done;
      ins
    in
    List.concat_map
      (fun (src, block, after) ->
        let reach, sinks = forward (block, after) in
        List.map
          (fun sink ->
            let region = backward sink in
            let inside = Array.init nblocks (fun b -> reach.(b) && region.(b)) in
            let ins = solve ~inside ~sink in
            let label =
              if after then
                Array.fold_left
                  (fun acc s -> if inside.(s) then Edge_dataflow.join acc ins.(s) else acc)
                  Edge_dataflow.top_must (Cfg.succs cfg block)
              else ins.(block)
            in
            {
              src;
              dst = Option.get sink_of_block.(sink);
              label;
              subgraph = List.filter (fun b -> inside.(b)) (List.init nblocks Fun.id);
            })
          sinks)
      (List.rev !sources)

  (* The first disagreement between the PSG's flow edges and the oracle's
     in each routine, in edge order; [[]] when they agree. *)
  let mismatches ~branch_nodes program =
    let cfgs = Array.map Cfg.build (Program.routines program) in
    let defuses = Array.map Defuse.compute cfgs in
    let psg = Psg_build.build ~branch_nodes program cfgs defuses in
    let built = Array.make (Array.length cfgs) [] in
    List.iter
      (fun e ->
        if is_flow_edge psg e then begin
          let src = Psg.kind psg (edge_source psg e) in
          let r = Psg.node_routine src in
          built.(r) <- (src, Psg.kind psg psg.dst.(e), edge_label psg e) :: built.(r)
        end)
      (edges_of psg);
    List.concat
      (List.init (Array.length cfgs) (fun r ->
           let name = (Program.get program r).Routine.name in
           let expected = flow_edges ~branch_nodes r cfgs.(r) defuses.(r) in
           let got = List.rev built.(r) in
           if List.length expected <> List.length got then
             [ Printf.sprintf "%s: %d flow edges, oracle has %d" name
                 (List.length got) (List.length expected) ]
           else
             let agree (o, (src, dst, label)) =
               o.src = src && o.dst = dst && label_equal o.label label
             in
             match List.find_index (fun pair -> not (agree pair)) (List.combine expected got) with
             | Some i -> [ Printf.sprintf "%s: flow edge %d differs from the oracle" name i ]
             | None -> []))
end

(* The optimizer's pass sequence with every re-analysis cold — a naive
   oracle for {!Spike_opt.Opt.run}, whose reruns reuse the analysis of
   every routine a pass left untouched. *)
module Cold_opt = struct
  open Spike_core
  open Spike_opt

  let rerun (a : Analysis.t) program =
    Analysis.run ~branch_nodes:a.branch_nodes ~externals:a.externals
      ~callee_saved_filter:a.callee_saved_filter ~jobs:a.jobs program

  let optimize (a : Analysis.t) =
    let program, _ = Spill.apply a in
    let a = rerun a program in
    let program, _ = Save_restore.apply a in
    let a = rerun a program in
    fst (Dead_code.eliminate ~rerun a)
end

(* Dead-code elimination one round per re-analysis — a naive oracle for
   {!Spike_opt.Dead_code}, which converges each routine's cascade under
   fixed summaries and re-analyses only for cascades that cross routines.
   A round removes exactly the instructions dead under the liveness it
   started from, found by its own instruction-by-instruction walk.  By
   confluence both reach the same program. *)
module Round_dce = struct
  open Spike_isa
  open Spike_ir
  open Spike_cfg
  open Spike_core
  open Spike_opt

  let is_pure = function
    | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Nop -> true
    | Insn.Store _ | Insn.Br _ | Insn.Bcond _ | Insn.Switch _ | Insn.Jump_unknown _
    | Insn.Call _ | Insn.Ret ->
        false

  let dead_in (a : Analysis.t) liveness r =
    let cfg = Analysis.cfg a r in
    let insns = cfg.Cfg.routine.Routine.insns in
    let dead = ref [] in
    for b = 0 to Cfg.block_count cfg - 1 do
      let live = ref (Liveness.live_out liveness ~routine:r ~block:b) in
      let last =
        match Cfg.ending cfg b with
        | Ends_call ->
            live := Liveness.live_before_call liveness ~routine:r ~block:b !live;
            Cfg.last cfg b - 1
        | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> Cfg.last cfg b
      in
      for i = last downto Cfg.first cfg b do
        let insn = insns.(i) in
        let defs = Insn.defs insn in
        if is_pure insn
           && (not (Regset.mem Reg.sp defs))
           && Regset.disjoint defs !live
           && (insn = Insn.Nop || not (Regset.is_empty defs))
        then dead := i :: !dead;
        live := Regset.union (Insn.uses insn) (Regset.diff !live defs)
      done
    done;
    !dead

  (* [Dead_code.eliminate]'s contract: the optimized program and the
     number of instructions removed. *)
  let eliminate ~rerun (a : Analysis.t) =
    let rec loop (a : Analysis.t) total =
      let liveness = Liveness.compute a in
      let removed = ref 0 in
      let routines =
        Array.mapi
          (fun r routine ->
            match dead_in a liveness r with
            | [] -> routine
            | dead ->
                removed := !removed + List.length dead;
                Rewrite.delete_instructions routine dead)
          (Program.routines a.program)
      in
      let program = Program.make ~main:(Program.main a.program) (Array.to_list routines) in
      if !removed = 0 then (program, total) else loop (rerun a program) (total + !removed)
    in
    loop a 0

  (* {!Spike_opt.Opt.run}'s pass sequence with this elimination. *)
  let optimize (a : Analysis.t) =
    let program, _ = Spill.apply a in
    let a = Analysis.rerun a program in
    let program, _ = Save_restore.apply a in
    let a = Analysis.rerun a program in
    eliminate ~rerun:Analysis.rerun a
end

(* The assembly front end as it was before the cursor lexer: split the
   source into lines, lex each line into a token list and pattern-match
   the list.  A naive oracle for {!Spike_asm.Parser}, which lexes and
   parses in one pass over the string with a byte-class scanner, name-key
   tables and interned labels.  Both accept exactly the same inputs, build
   the same programs and report an error at the same line: each lexes a
   line just before parsing it, so the first offending line in source
   order wins.  Only the message may differ, where one line holds two
   bad registers. *)
module Line_parser = struct
  open Spike_isa
  open Spike_ir

  exception Error of { line : int; message : string }

  type token =
    | Ident of string
    | Int of int
    | Directive of string
    | Comma
    | Colon
    | Lparen
    | Rparen
    | Lbracket
    | Rbracket
    | Lbrace
    | Rbrace
    | Equals

  let fail line fmt = Format.kasprintf (fun message -> raise (Error { line; message })) fmt

  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
  let is_digit c = c >= '0' && c <= '9'

  let tokenize_line line_number line =
    let n = String.length line in
    let tokens = ref [] in
    let emit t = tokens := t :: !tokens in
    let rec scan i =
      if i >= n then ()
      else
        let c = line.[i] in
        let punct t =
          emit t;
          scan (i + 1)
        in
        match c with
        | ' ' | '\t' | '\r' -> scan (i + 1)
        | '#' -> ()
        | ',' -> punct Comma
        | ':' -> punct Colon
        | '(' -> punct Lparen
        | ')' -> punct Rparen
        | '[' -> punct Lbracket
        | ']' -> punct Rbracket
        | '{' -> punct Lbrace
        | '}' -> punct Rbrace
        | '=' -> punct Equals
        | '.' ->
            let j = ref (i + 1) in
            while !j < n && is_ident_char line.[!j] do
              incr j
            done;
            if !j = i + 1 then fail line_number "expected directive name after '.'";
            emit (Directive (String.sub line (i + 1) (!j - i - 1)));
            scan !j
        | _ when is_digit c || (c = '-' && i + 1 < n && is_digit line.[i + 1]) ->
            let j = ref (if c = '-' then i + 1 else i) in
            while !j < n && is_digit line.[!j] do
              incr j
            done;
            let text = String.sub line i (!j - i) in
            (match int_of_string_opt text with
            | Some v -> emit (Int v)
            | None -> fail line_number "integer %s out of range" text);
            scan !j
        | _ when is_ident_start c ->
            let j = ref i in
            while !j < n && is_ident_char line.[!j] do
              incr j
            done;
            emit (Ident (String.sub line i (!j - i)));
            scan !j
        | _ -> fail line_number "unexpected character %C" c
    in
    scan 0;
    List.rev !tokens

  let reg line name =
    match Reg.of_name name with
    | Some r -> r
    | None -> fail line "unknown register %s" name

  let instruction line tokens =
    let reg = reg line in
    match tokens with
    | [ Ident "li"; Ident d; Comma; Int imm ] -> Insn.Li { dst = reg d; imm }
    | [ Ident "lda"; Ident d; Comma; Int offset; Lparen; Ident b; Rparen ] ->
        Insn.Lda { dst = reg d; base = reg b; offset }
    | [ Ident "mov"; Ident s; Comma; Ident d ] -> Insn.Mov { dst = reg d; src = reg s }
    | [ Ident "ldq"; Ident d; Comma; Int offset; Lparen; Ident b; Rparen ] ->
        Insn.Load { dst = reg d; base = reg b; offset }
    | [ Ident "stq"; Ident s; Comma; Int offset; Lparen; Ident b; Rparen ] ->
        Insn.Store { src = reg s; base = reg b; offset }
    | [ Ident "br"; Ident target ] -> Insn.Br { target }
    | [ Ident "jmp"; Lparen; Ident r; Rparen ] -> Insn.Jump_unknown { target = reg r }
    | [ Ident "bsr"; Ident "ra"; Comma; Ident name ] -> Insn.Call { callee = Insn.Direct name }
    | [ Ident "jsr"; Ident "ra"; Comma; Lparen; Ident r; Rparen ] ->
        Insn.Call { callee = Insn.Indirect (reg r, None) }
    | Ident "jsr" :: Ident "ra" :: Comma :: Lparen :: Ident r :: Rparen :: Comma :: Lbracket
      :: rest ->
        let rec names acc = function
          | [ Ident n; Rbracket ] -> List.rev (n :: acc)
          | Ident n :: Comma :: rest -> names (n :: acc) rest
          | _ -> fail line "malformed jsr target list"
        in
        Insn.Call { callee = Insn.Indirect (reg r, Some (names [] rest)) }
    | [ Ident "ret" ] -> Insn.Ret
    | [ Ident "nop" ] -> Insn.Nop
    | Ident "switch" :: Ident r :: Comma :: Lbracket :: rest ->
        let rec labels acc = function
          | [ Ident l; Rbracket ] -> List.rev (l :: acc)
          | Ident l :: Comma :: rest -> labels (l :: acc) rest
          | _ -> fail line "malformed switch table"
        in
        Insn.Switch { index = reg r; table = Array.of_list (labels [] rest) }
    | [ Ident m; Ident s1; Comma; Ident s2; Comma; Ident d ] -> (
        match Insn.binop_of_name m with
        | Some op -> Insn.Binop { op; dst = reg d; src1 = reg s1; src2 = Insn.Reg (reg s2) }
        | None -> fail line "unknown mnemonic %s" m)
    | [ Ident m; Ident s1; Comma; Int i; Comma; Ident d ] -> (
        match Insn.binop_of_name m with
        | Some op -> Insn.Binop { op; dst = reg d; src1 = reg s1; src2 = Insn.Imm i }
        | None -> fail line "unknown mnemonic %s" m)
    | [ Ident m; Ident s; Comma; Ident target ] -> (
        match Insn.cond_of_name m with
        | Some cond -> Insn.Bcond { cond; src = reg s; target }
        | None -> fail line "unknown mnemonic %s" m)
    | Ident m :: _ -> fail line "cannot parse %s instruction" m
    | _ -> fail line "expected an instruction"

  type partial_routine = {
    name : string;
    exported : bool;
    mutable entries : string list; (* reversed *)
    mutable labels : (string * int) list; (* reversed *)
    mutable insns : Insn.t list; (* reversed *)
  }

  let parse_lines source =
    let main = ref None in
    let routines = ref [] in
    let current = ref None in
    let finish p =
      let entries =
        match List.rev p.entries with
        | [] ->
            let l = p.name ^ "$entry" in
            if not (List.mem_assoc l p.labels) then p.labels <- (l, 0) :: p.labels;
            [ l ]
        | declared -> declared
      in
      routines :=
        Routine.make ~exported:p.exported ~name:p.name ~entries
          ~labels:(List.rev p.labels)
          (Array.of_list (List.rev p.insns))
        :: !routines;
      current := None
    in
    List.iteri
      (fun i text ->
        let line = i + 1 in
        let tokens = tokenize_line line text in
        match (tokens, !current) with
        | [], _ -> ()
        | [ Directive "main"; Ident name ], None -> (
            match !main with
            | None -> main := Some name
            | Some _ -> fail line "duplicate .main directive")
        | Directive "routine" :: Ident name :: rest, None ->
            let exported =
              match rest with
              | [] -> false
              | [ Directive "exported" ] -> true
              | _ -> fail line "malformed .routine directive"
            in
            current := Some { name; exported; entries = []; labels = []; insns = [] }
        | [ Directive "end" ], Some p -> finish p
        | [ Directive "entry"; Ident label ], Some p -> p.entries <- label :: p.entries
        | [ Ident label; Colon ], Some p ->
            if List.mem_assoc label p.labels then fail line "duplicate label %s" label
            else p.labels <- (label, List.length p.insns) :: p.labels
        | _, Some p -> p.insns <- instruction line tokens :: p.insns
        | _, None -> fail line "expected .main or .routine")
      (String.split_on_char '\n' source);
    (match !current with
    | Some p -> fail 0 "routine %s not closed with .end" p.name
    | None -> ());
    match !main with
    | None -> fail 0 "missing .main directive"
    | Some main -> Program.make ~main (List.rev !routines)

  let program_of_string source =
    match parse_lines source with
    | program -> program
    | exception Invalid_argument message -> raise (Error { line = 0; message })
end

(* A list-based schedule construction: a list call graph, a Tarjan that
   sorts each component by finish time and builds its condensation from
   lists, list-built dependency graphs, and a fresh SCC pass over each
   component's induced dependency graph.  A naive oracle for
   {!Spike_core.Sched.make}, which must produce the same schedule field
   for field. *)
module Sched_oracle = struct
  open Spike_core

  let scc_compute ~succs:graph =
    let n = Array.length graph in
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Bytes.make (max n 1) '\000' in
    let comp_of = Array.make n (-1) in
    let stack = Array.make (max n 1) 0 in
    let stack_top = ref 0 in
    let frame_v = Array.make (max n 1) 0 in
    let frame_child = Array.make (max n 1) 0 in
    let frame_top = ref 0 in
    let next_index = ref 0 in
    let finish = Array.make n 0 in
    let next_finish = ref 0 in
    let members_rev = ref [] in
    let count = ref 0 in
    let discover v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      stack.(!stack_top) <- v;
      incr stack_top;
      Bytes.set on_stack v '\001';
      frame_v.(!frame_top) <- v;
      frame_child.(!frame_top) <- 0;
      incr frame_top
    in
    for root = 0 to n - 1 do
      if index.(root) < 0 then begin
        discover root;
        while !frame_top > 0 do
          let f = !frame_top - 1 in
          let v = frame_v.(f) in
          let ci = frame_child.(f) in
          let out = graph.(v) in
          if ci < Array.length out then begin
            frame_child.(f) <- ci + 1;
            let w = out.(ci) in
            if index.(w) < 0 then discover w
            else if Bytes.get on_stack w = '\001' then
              lowlink.(v) <- min lowlink.(v) index.(w)
          end
          else begin
            decr frame_top;
            finish.(v) <- !next_finish;
            incr next_finish;
            if !frame_top > 0 then begin
              let parent = frame_v.(!frame_top - 1) in
              lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
            end;
            if lowlink.(v) = index.(v) then begin
              let base = ref !stack_top in
              let continue = ref true in
              while !continue do
                decr base;
                let w = stack.(!base) in
                Bytes.set on_stack w '\000';
                comp_of.(w) <- !count;
                if w = v then continue := false
              done;
              let comp = Array.sub stack !base (!stack_top - !base) in
              Array.sort (fun a b -> Int.compare finish.(a) finish.(b)) comp;
              stack_top := !base;
              members_rev := comp :: !members_rev;
              incr count
            end
          end
        done
      end
    done;
    let count = !count in
    let members = Array.make (max count 1) [||] in
    List.iteri (fun i comp -> members.(count - 1 - i) <- comp) !members_rev;
    let members = Array.sub members 0 count in
    let succ_acc = Array.make (max count 1) [] in
    for u = 0 to n - 1 do
      let cu = comp_of.(u) in
      Array.iter
        (fun v ->
          let cv = comp_of.(v) in
          if cv <> cu then succ_acc.(cu) <- cv :: succ_acc.(cu))
        graph.(u)
    done;
    let succs =
      Array.init count (fun c ->
          Array.of_list (List.sort_uniq Int.compare succ_acc.(c)))
    in
    { Scc.count; comp_of; members; succs }

  let call_graph (psg : Psg.t) =
    let n = Program.routine_count psg.Psg.program in
    let succs = Array.make n [] in
    for c = 0 to Psg.call_count psg - 1 do
      let caller = Psg.node_routine (Psg.kind psg psg.Psg.call_node.(c)) in
      match Psg.call_targets psg c with
      | Some targets ->
          List.iter
            (function
              | Psg.Target_routine r -> succs.(caller) <- r :: succs.(caller)
              | Psg.Target_external _ -> ())
            targets
      | None -> ()
    done;
    Array.map (fun callees -> Array.of_list (List.sort_uniq Int.compare callees)) succs

  (* Each phase's dependency graph, as lists: row [u] holds the nodes
     [u]'s equation reads — its out-edge destinations in edge order, then
     for phase 1 at a call node the primary entry of each routine target,
     for phase 2 at an exit node the return node of each call that may
     target its routine. *)
  let deps (psg : Psg.t) =
    let n = Psg.node_count psg in
    let flow_deps u =
      let acc = ref [] in
      Psg.iter_out_edges psg u (fun e -> acc := psg.Psg.dst.(e) :: !acc);
      List.rev !acc
    in
    let p1_extra = Array.make n [] and p2_extra = Array.make n [] in
    for c = 0 to Psg.call_count psg - 1 do
      let call_node = psg.Psg.call_node.(c) in
      match Psg.call_targets psg c with
      | None -> ()
      | Some targets ->
          List.iter
            (function
              | Psg.Target_external _ -> ()
              | Psg.Target_routine r ->
                  p1_extra.(call_node) <-
                    List.hd (Psg.entry_node_list psg r) :: p1_extra.(call_node);
                  List.iter
                    (fun exit_node ->
                      p2_extra.(exit_node) <- (call_node + 1) :: p2_extra.(exit_node))
                    (Psg.exit_node_list psg r))
            targets
    done;
    let deps extra = Array.init n (fun u -> Array.of_list (flow_deps u @ extra.(u))) in
    (deps p1_extra, deps p2_extra)

  let make (psg : Psg.t) =
    let scc = scc_compute ~succs:(call_graph psg) in
    let n = Psg.node_count psg in
    let comp_of_node = Array.make n 0 in
    for id = 0 to n - 1 do
      comp_of_node.(id) <- scc.Scc.comp_of.(Psg.node_routine (Psg.kind psg id))
    done;
    let deps1, deps2 = deps psg in
    let comp_members =
      let acc = Array.make (max scc.Scc.count 1) [] in
      for id = n - 1 downto 0 do
        acc.(comp_of_node.(id)) <- id :: acc.(comp_of_node.(id))
      done;
      Array.map Array.of_list acc
    in
    let lidx = Array.make n 0 in
    (* One SCC pass over each component's nodes; the SCCs are listed
       back to back, each with its end at its start. *)
    let split dep_arr =
      let orders =
        Array.init scc.Scc.count (fun c ->
            let set = comp_members.(c) in
            let len = Array.length set in
            Array.iteri (fun i id -> lidx.(id) <- i) set;
            let succs =
              Array.init len (fun i ->
                  let acc = ref [] in
                  Array.iter
                    (fun d -> if comp_of_node.(d) = c then acc := lidx.(d) :: !acc)
                    dep_arr.(set.(i));
                  Array.of_list !acc)
            in
            let sccs = Array.to_list (scc_compute ~succs).Scc.members in
            let ends = Array.make len 0 in
            ignore
              (List.fold_left
                 (fun start ms ->
                   ends.(start) <- start + Array.length ms;
                   ends.(start))
                 0 sccs);
            (Array.map (fun i -> set.(i)) (Array.concat sccs), ends))
      in
      (Array.map fst orders, Array.map snd orders)
    in
    let comp_nodes_p1, comp_ends_p1 = split deps1 in
    let comp_nodes_p2, comp_ends_p2 = split deps2 in
    let calls_acc = Array.make (max scc.Scc.count 1) [] in
    Array.iteri
      (fun i call_node ->
        let c = comp_of_node.(call_node) in
        calls_acc.(c) <- i :: calls_acc.(c))
      psg.Psg.call_node;
    let comp_calls =
      Array.init scc.Scc.count (fun c -> Array.of_list (List.rev calls_acc.(c)))
    in
    {
      Sched.scc;
      comp_of_node;
      comp_nodes_p1;
      comp_ends_p1;
      comp_nodes_p2;
      comp_ends_p2;
      comp_calls;
    }

  (* The fields in which [got], a schedule built for [psg], differs from
     the oracle's, by name; empty when they agree. *)
  let mismatches (psg : Psg.t) (got : Sched.t) =
    let want = make psg in
    List.filter_map
      (fun (name, same) -> if same then None else Some name)
      [
        ("scc.count", got.Sched.scc.Scc.count = want.Sched.scc.Scc.count);
        ("scc.comp_of", got.Sched.scc.Scc.comp_of = want.Sched.scc.Scc.comp_of);
        ("scc.members", got.Sched.scc.Scc.members = want.Sched.scc.Scc.members);
        ("scc.succs", got.Sched.scc.Scc.succs = want.Sched.scc.Scc.succs);
        ("comp_of_node", got.Sched.comp_of_node = want.Sched.comp_of_node);
        ("comp_nodes_p1", got.Sched.comp_nodes_p1 = want.Sched.comp_nodes_p1);
        ("comp_ends_p1", got.Sched.comp_ends_p1 = want.Sched.comp_ends_p1);
        ("comp_nodes_p2", got.Sched.comp_nodes_p2 = want.Sched.comp_nodes_p2);
        ("comp_ends_p2", got.Sched.comp_ends_p2 = want.Sched.comp_ends_p2);
        ("comp_calls", got.Sched.comp_calls = want.Sched.comp_calls);
      ]
end

(* The CFG as it was before the lanes: one boxed record per block, a
   successor and a predecessor array each, the callee carried in the
   ending, and a per-instruction [block_of_insn] array; DEF/UBD computed
   per record.  A naive oracle for {!Spike_cfg.Cfg} and
   {!Spike_cfg.Defuse}: the lanes must describe exactly this graph. *)
module Record_cfg = struct
  open Spike_isa
  open Spike_ir
  open Spike_cfg

  type ending =
    | Ends_plain
    | Ends_call of Insn.callee
    | Ends_ret
    | Ends_switch
    | Ends_jump_unknown

  type block = {
    id : int;
    first : int;
    last : int;
    succs : int array;
    preds : int array;
    ending : ending;
  }

  type t = {
    routine : Routine.t;
    blocks : block array;
    block_of_insn : int array;
    entry_blocks : (string * int) list;
  }

  let ending_of insn =
    match insn with
    | Insn.Call { callee } -> Ends_call callee
    | Insn.Ret -> Ends_ret
    | Insn.Switch _ -> Ends_switch
    | Insn.Jump_unknown _ -> Ends_jump_unknown
    | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Load _ | Insn.Store _
    | Insn.Br _ | Insn.Bcond _ | Insn.Nop ->
        Ends_plain

  let build (routine : Routine.t) =
    let insns = routine.insns in
    let len = Array.length insns in
    let label_index l = Option.get (Routine.label_index routine l) in
    let leader = Array.make len false in
    leader.(0) <- true;
    let mark i = if i < len then leader.(i) <- true in
    List.iter (fun entry -> mark (label_index entry)) routine.entries;
    Array.iteri
      (fun i insn ->
        List.iter (fun l -> mark (label_index l)) (Insn.branch_targets insn);
        if Insn.ends_block insn then mark (i + 1))
      insns;
    let starts = List.filter (fun i -> leader.(i)) (List.init len Fun.id) in
    let starts = Array.of_list starts in
    let nblocks = Array.length starts in
    let block_of_insn = Array.make len 0 in
    let ranges =
      Array.mapi
        (fun b first ->
          let last = if b + 1 < nblocks then starts.(b + 1) - 1 else len - 1 in
          for i = first to last do
            block_of_insn.(i) <- b
          done;
          (first, last))
        starts
    in
    let succs = Array.make nblocks [] and preds = Array.make nblocks [] in
    let add_arc src dst =
      if not (List.mem dst succs.(src)) then begin
        succs.(src) <- dst :: succs.(src);
        preds.(dst) <- src :: preds.(dst)
      end
    in
    Array.iteri
      (fun b (_, last) ->
        let insn = insns.(last) in
        List.iter
          (fun l -> add_arc b block_of_insn.(label_index l))
          (Insn.branch_targets insn);
        if Insn.falls_through insn then add_arc b block_of_insn.(last + 1))
      ranges;
    let blocks =
      Array.mapi
        (fun b (first, last) ->
          {
            id = b;
            first;
            last;
            succs = Array.of_list (List.rev succs.(b));
            preds = Array.of_list (List.rev preds.(b));
            ending = ending_of insns.(last);
          })
        ranges
    in
    let entry_blocks =
      List.map (fun entry -> (entry, block_of_insn.(label_index entry))) routine.entries
    in
    { routine; blocks; block_of_insn; entry_blocks }

  (* DEF/UBD of each block, its terminating call excluded. *)
  let defuse g =
    let insns = g.routine.insns in
    Array.map
      (fun b ->
        let upper = match b.ending with Ends_call _ -> b.last - 1 | _ -> b.last in
        let def = ref Regset.empty and ubd = ref Regset.empty in
        for i = b.first to upper do
          ubd := Regset.union !ubd (Regset.diff (Insn.uses insns.(i)) !def);
          def := Regset.union !def (Insn.defs insns.(i))
        done;
        (!def, !ubd))
      g.blocks

  (* Every way the lane graph [g] and its [du] differ from the record
     oracle built from the same routine; [[]] when they agree. *)
  let mismatches (g : Cfg.t) (du : Defuse.t) =
    let name = g.Cfg.routine.Routine.name in
    let o = build g.Cfg.routine in
    let sets = defuse o in
    let problems = ref [] in
    let fail fmt =
      Printf.ksprintf (fun m -> problems := Printf.sprintf "%s: %s" name m :: !problems) fmt
    in
    if Cfg.block_count g <> Array.length o.blocks then
      fail "%d blocks, oracle has %d" (Cfg.block_count g) (Array.length o.blocks)
    else begin
      (* Predecessors come from the successor lanes on demand: per block
         ({!Cfg.preds}) and as the whole CSR ({!Cfg.pred_rows}). *)
      let pred_off = Array.make (Cfg.block_count g + 1) 0 in
      let pred_adj = Array.make (Cfg.arc_count g) 0 in
      Cfg.pred_rows g ~off:pred_off ~adj:pred_adj;
      Array.iter
        (fun b ->
          let id = b.id in
          if Cfg.first g id <> b.first || Cfg.last g id <> b.last then
            fail "B%d is [%d..%d], oracle [%d..%d]" id (Cfg.first g id) (Cfg.last g id)
              b.first b.last;
          if Cfg.succs g id <> b.succs then fail "B%d successors differ" id;
          if Cfg.preds g id <> b.preds then fail "B%d predecessors differ" id;
          if Array.sub pred_adj pred_off.(id) (pred_off.(id + 1) - pred_off.(id)) <> b.preds
          then fail "B%d predecessor row differs" id;
          if Cfg.pred_count g id <> Array.length b.preds then fail "B%d in-degree differs" id;
          (match (Cfg.ending g id, b.ending) with
          | Cfg.Ends_call, Ends_call callee ->
              if Cfg.callee g id <> callee then fail "B%d callee differs" id
          | Cfg.Ends_plain, Ends_plain
          | Cfg.Ends_ret, Ends_ret
          | Cfg.Ends_switch, Ends_switch
          | Cfg.Ends_jump_unknown, Ends_jump_unknown ->
              ()
          | _ -> fail "B%d ending differs" id);
          let def, ubd = sets.(id) in
          if
            not (Regset.equal (Defuse.def du id) def && Regset.equal (Defuse.ubd du id) ubd)
          then fail "B%d DEF/UBD differ" id)
        o.blocks;
      Array.iteri
        (fun i b ->
          if Cfg.block_of_insn g i <> b then fail "instruction %d's block differs" i)
        o.block_of_insn
    end;
    if Cfg.entry_count g <> List.length o.entry_blocks then fail "entry counts differ"
    else if entry_blocks g <> o.entry_blocks then fail "entry blocks differ";
    List.rev !problems
end

(* [Save_restore.apply] as it was before one detection per routine: fold
   the routine's renamings one at a time, rebuilding the CFG and
   re-detecting the save/restore sites against the rewritten routine
   before each.  A naive oracle: both must print the same program. *)
module Fold_save_restore = struct
  open Spike_ir
  open Spike_cfg
  open Spike_core
  open Spike_opt

  let apply (analysis : Analysis.t) =
    let liveness = Liveness.compute analysis in
    let renamings = Save_restore.find analysis liveness in
    let program = analysis.Analysis.program in
    let by_routine = Array.make (Program.routine_count program) [] in
    List.iter
      (fun (ren : Save_restore.renaming) ->
        by_routine.(ren.routine) <- ren :: by_routine.(ren.routine))
      (List.rev renamings);
    let apply_one routine (ren : Save_restore.renaming) =
      match
        List.find_opt
          (fun (site : Callee_saved.site) -> site.reg = ren.saved)
          (Callee_saved.sites routine (Cfg.build routine))
      with
      | None -> routine
      | Some site ->
          let skip = site.save_index :: site.restore_indexes in
          let routine =
            if ren.replacement = ren.saved then routine
            else
              Rewrite.rename_register routine ~from_reg:ren.saved ~to_reg:ren.replacement
                ~except:skip
          in
          Rewrite.delete_instructions routine skip
    in
    let routines =
      Array.mapi
        (fun r routine -> List.fold_left apply_one routine by_routine.(r))
        (Program.routines program)
    in
    (Program.make ~main:(Program.main program) (Array.to_list routines), renamings)
end

(* The §3.4 detector as it was before it gathered the routine's sp
   definitions and slot stores in one pass: a rescan of the whole routine
   for the frame check and another per candidate save.  The oracle for
   {!Spike_core.Callee_saved.sites}. *)
module Callee_saved_oracle = struct
  open Spike_cfg

  let defines_sp insn = Regset.mem Reg.sp (Insn.defs insn)

  (* The frame discipline: either sp is never defined, or the entry block's
     first instruction is [lda sp, -n(sp)] and the instruction before each ret
     is [lda sp, n(sp)], and these are the only sp definitions. *)
  let frame_discipline_ok (routine : Routine.t) (cfg : Cfg.t) ~entry_block ~exit_blocks =
    let insns = routine.insns in
    let sp_defs = ref [] in
    Array.iteri (fun i insn -> if defines_sp insn then sp_defs := i :: !sp_defs) insns;
    match List.rev !sp_defs with
    | [] -> Some None
    | first :: rest -> (
        match insns.(first) with
        | Insn.Lda { dst; base; offset }
          when dst = Reg.sp && base = Reg.sp && offset < 0
               && first = Cfg.first cfg entry_block ->
            let n = -offset in
            let expected = List.map (fun e -> Cfg.last cfg e - 1) exit_blocks in
            let is_readjust i =
              i >= 0
              &&
              match insns.(i) with
              | Insn.Lda { dst; base; offset } ->
                  dst = Reg.sp && base = Reg.sp && offset = n
              | _ -> false
            in
            if
              List.for_all is_readjust expected
              && List.sort Int.compare rest = List.sort Int.compare expected
            then Some (Some n)
            else None
        | _ -> None)

  let sites (routine : Routine.t) (cfg : Cfg.t) =
    let insns = routine.insns in
    let exit_blocks = Cfg.exit_blocks cfg in
    match (entry_blocks cfg, Cfg.unknown_jump_blocks cfg) with
    | _, _ :: _ -> [] (* may leave without restoring *)
    | [ (_, entry_block) ], [] when Cfg.pred_count cfg entry_block = 0 -> (
        match frame_discipline_ok routine cfg ~entry_block ~exit_blocks with
        | None -> []
        | Some frame ->
            (* Candidate saves in the entry block: store of an unclobbered
               callee-saved register to a fresh sp slot. *)
            let candidates = ref [] (* (reg, offset, save_index) *) in
            let defined = ref Regset.empty in
            let slot_taken off = List.exists (fun (_, o, _) -> o = off) !candidates in
            let entry_last = Cfg.last cfg entry_block in
            let body_last =
              match Cfg.ending cfg entry_block with
              | Ends_call -> entry_last - 1
              | Ends_plain | Ends_ret | Ends_switch | Ends_jump_unknown -> entry_last
            in
            for i = Cfg.first cfg entry_block to body_last do
              (match insns.(i) with
              | Insn.Store { src; base; offset }
                when base = Reg.sp
                     && Regset.mem src Calling_standard.callee_saved
                     && src <> Reg.sp
                     && (not (Regset.mem src !defined))
                     && not (slot_taken offset) ->
                  candidates := (src, offset, i) :: !candidates
              | _ -> ());
              defined := Regset.union !defined (Insn.defs insns.(i))
            done;
            (* The save must be the slot's only store. *)
            let sole_store (_, off, save_index) =
              let ok = ref true in
              Array.iteri
                (fun i insn ->
                  match insn with
                  | Insn.Store { base; offset; _ }
                    when base = Reg.sp && offset = off && i <> save_index ->
                      ok := false
                  | _ -> ())
                insns;
              !ok
            in
            (* Every ret block must reload the register from the slot, with no
               later definition of it before the ret.  Returns the reload's
               index. *)
            let restored_at_exit (s, off, _) e =
              let last = Cfg.last cfg e in
              let zone_last = match frame with Some _ -> last - 2 | None -> last - 1 in
              let rec defined_after i =
                i <= last - 1 && (Regset.mem s (Insn.defs insns.(i)) || defined_after (i + 1))
              in
              let rec find i =
                if i > zone_last then None
                else
                  match insns.(i) with
                  | Insn.Load { dst; base; offset }
                    when dst = s && base = Reg.sp && offset = off ->
                      if defined_after (i + 1) then find (i + 1) else Some i
                  | _ -> find (i + 1)
              in
              find (Cfg.first cfg e)
            in
            let site_of ((s, _, save_index) as c) =
              if sole_store c && exit_blocks <> [] then
                let restores = List.map (restored_at_exit c) exit_blocks in
                if List.for_all Option.is_some restores then
                  Some
                    {
                      Spike_core.Callee_saved.reg = s;
                      save_index;
                      restore_indexes = List.filter_map Fun.id restores;
                    }
                else None
              else None
            in
            List.filter_map site_of (List.rev !candidates))
    | _, [] -> []
end
