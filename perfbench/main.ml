(* Paper-scale benchmark of the Spike interprocedural analysis.

   One process, one client, a closed loop: each operation starts when the
   previous one has finished, and every timed analysis runs on one domain
   (on a small shared host a second domain measures the scheduler more
   than the analysis; jobs 2 is checked against jobs 1 outside timing).
   Inputs come from the calibrated generator (Spike_synth.Calibrate)
   seeded by [--seed]; operations start from assembly text held in
   memory, as [spike analyze FILE] does.

   Workloads (see BENCHMARK.json for why each was chosen):
   - edit-gcc    a seeded edit stream on the gcc shape at scale 1.0: each
                 version analysed cold, then through the disk store
                 ([spike analyze --store]);
   - opt-vortex  parse, validate, analyse and optimize guarded vortex
                 programs, several per run.

   [--trace 0] measures the end-to-end metrics; [--trace 1] replays one
   cold operation layer by layer through the libraries' public functions
   (plus the workload's store or optimizer path) and reports the
   per-layer metrics.  Every timed result is checked (summary digests,
   the PSG-free reference, the interpreter, deterministic counters); the
   last line of stdout is the JSON result, and any failed check makes
   the exit code 1. *)

open Spike_support
open Spike_ir
open Spike_core
module Store = Spike_store.Store

let jobs = 1
let setup_reps = 3

(* --- Command line -------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let out = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--out", Arg.Set_string out, "FILE append a detailed record (JSON line)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1"

type kind = Edit | Optimize

(* Kind, shape, scale and number of programs of each workload.  The
   optimizer workload cycles through eight half-scale programs: one
   program's optimizer time depends on how many dead-code rounds it
   happens to need, and a run's timing averages that out over its
   programs. *)
let kind, shape, scale, programs =
  match !workload with
  | "edit-gcc" -> (Edit, "gcc", 1.0, 1)
  | "opt-vortex" -> (Optimize, "vortex", 0.5, 8)
  | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2

(* --- Accounting ------------------------------------------------------------ *)

let now = Timer.now
let attempted = ref 0
let failed = ref 0
let problems = ref 0

let problem fmt =
  Printf.ksprintf
    (fun s ->
      incr problems;
      prerr_endline ("perfbench: check failed: " ^ s))
    fmt

(* Garbage of the previous operation is collected before the next one
   starts, outside the timed interval: each operation then starts from
   the same heap state, as in a fresh process, and the heap does not
   grow from one operation to the next. *)
let settle () = Gc.full_major ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* One timed operation of the closed loop: an exception counts as failed. *)
let timed_op f =
  settle ();
  incr attempted;
  match time f with
  | result -> Some result
  | exception e ->
      incr failed;
      problem "operation raised %s" (Printexc.to_string e);
      None

(* A timed operation whose result then failed a check. *)
let op_failed fmt =
  incr failed;
  problem fmt

(* --- Inputs ---------------------------------------------------------------- *)

(* Program [i] of the run. *)
let generate i =
  let row = Option.get (Spike_synth.Calibrate.find shape) in
  let p = Spike_synth.Calibrate.params_of ~scale row in
  let p = { p with Spike_synth.Params.seed = Hashtbl.hash (shape, !seed, i) } in
  let p =
    if kind = Optimize then
      (* Guarded calls and no unknown jumps: the program halts under the
         interpreter, which checks the optimizer's output. *)
      { p with Spike_synth.Params.guard_calls = true; unknown_jump_prob = 0.0 }
    else p
  in
  Spike_synth.Generator.generate p

let print = Spike_asm.Printer.to_string

(* Seeded edits on the IR.  Every edit keeps the program valid: an
   immediate bump keeps the call graph; adding a direct call replaces a
   non-final straight-line instruction; removing one replaces the call
   with a [nop]. *)
module Edit = struct
  open Spike_isa

  let bump insns =
    let rec go i =
      if i >= Array.length insns then false
      else
        match insns.(i) with
        | Insn.Li { dst; imm } ->
            insns.(i) <- Insn.Li { dst; imm = imm + 1 };
            true
        | Insn.Lda { dst; base; offset } ->
            insns.(i) <- Insn.Lda { dst; base; offset = offset + 1 };
            true
        | _ -> go (i + 1)
    in
    go 0

  let pick g insns pred =
    let idx = ref [] in
    Array.iteri (fun i insn -> if pred i insn then idx := i :: !idx) insns;
    match !idx with [] -> None | l -> Some (Prng.choose g (Array.of_list l))

  let add_call g names insns =
    let last = Array.length insns - 1 in
    match
      pick g insns (fun i -> function
        | Insn.Li _ | Insn.Lda _ | Insn.Mov _ | Insn.Binop _ | Insn.Nop -> i < last
        | _ -> false)
    with
    | None -> false
    | Some i ->
        insns.(i) <- Insn.Call { callee = Insn.Direct (Prng.choose g names) };
        true

  let remove_call g insns =
    match
      pick g insns (fun _ -> function
        | Insn.Call { callee = Insn.Direct _ } -> true
        | _ -> false)
    with
    | None -> false
    | Some i ->
        insns.(i) <- Insn.Nop;
        true

  (* A seeded stream of edits.  Edited routines take the three kinds in
     turn: immediate bump, added call, removed call. *)
  type stream = { g : Prng.t; mutable turn : int }

  let stream () = { g = Prng.create (Hashtbl.hash ("edits", shape, !seed)); turn = 0 }

  (* Edit [k] distinct routines, each with the stream's next kind (falling
     back to the following kinds when that one is impossible). *)
  let apply s program k =
    let g = s.g in
    let routines = Array.copy (Program.routines program) in
    let n = Array.length routines in
    let main = Program.main program in
    let names =
      Array.of_list
        (List.filter_map
           (fun (r : Routine.t) -> if r.Routine.name = main then None else Some r.name)
           (Array.to_list routines))
    in
    let order = Array.init n Fun.id in
    Prng.shuffle g order;
    for j = 0 to min k n - 1 do
      let r = routines.(order.(j)) in
      let insns = Array.copy r.Routine.insns in
      let kinds = [| bump; add_call g names; remove_call g |] in
      let tries = List.init 3 (fun i -> kinds.((s.turn + i) mod 3)) in
      s.turn <- s.turn + 1;
      if List.exists (fun f -> f insns) tries then
        routines.(order.(j)) <- { r with Routine.insns }
    done;
    Program.make ~main (Array.to_list routines)

  (* Edit sizes of one cycle: nothing, one routine, ~1% and ~5%. *)
  let sizes n = [| 0; 1; max 1 (n / 100); max 1 (n / 20) |]
end

(* --- Operations and checks ------------------------------------------------- *)

let parse text =
  let p = Spike_asm.Parser.program_of_string text in
  (match Validate.check p with
  | Ok () -> ()
  | Error errs -> failwith ("invalid program: " ^ String.concat "; " errs));
  p

let cold text = Analysis.run ~jobs (parse text)

(* [spike analyze --store DIR FILE]. *)
let via_disk ~dir text =
  let p = parse text in
  let loaded = Store.load ~dir p in
  let a = Analysis.run ~jobs ~warm:loaded.Store.plan ~capture:true p in
  Store.save ~dir a;
  (a, loaded)

let digest (a : Analysis.t) =
  Digest.string (Marshal.to_string a.Analysis.summaries [ Marshal.No_sharing ])

type counts = { nodes : int; edges : int; p1 : int; p2 : int }

let counts (a : Analysis.t) =
  {
    nodes = Psg.node_count a.Analysis.psg;
    edges = Psg.edge_count a.Analysis.psg;
    p1 = a.Analysis.phase1_iterations;
    p2 = a.Analysis.phase2_iterations;
  }

(* The PSG-free oracle must agree with every summary set. *)
let agrees_with_reference (a : Analysis.t) =
  let r = Spike_reference.Reference.run a.Analysis.program in
  let module R = Spike_reference.Reference in
  let same_class (x : Summary.call_class) (y : Summary.call_class) =
    Regset.equal x.used y.used && Regset.equal x.defined y.defined
    && Regset.equal x.killed y.killed
  in
  let ok = ref true in
  Array.iteri
    (fun i (s : Summary.t) ->
      if not (same_class s.Summary.call_class r.R.call_classes.(i)) then ok := false;
      (match s.Summary.live_at_entry with
      | (_, live) :: _ ->
          if not (Regset.equal live r.R.live_at_entry.(i)) then ok := false
      | [] -> ());
      List.iter
        (fun (b, live) ->
          match List.assoc_opt b r.R.live_at_exit.(i) with
          | Some e when Regset.equal e live -> ()
          | _ -> ok := false)
        s.Summary.live_at_exit)
    a.Analysis.summaries;
  !ok

let check_reference what a =
  if not (agrees_with_reference a) then problem "%s disagrees with the reference" what

(* Deterministic counters must repeat exactly. *)
let check_counts what expected got =
  if expected <> got then
    problem "%s: counters differ (nodes %d/%d edges %d/%d phase1 %d/%d phase2 %d/%d)"
      what expected.nodes got.nodes expected.edges got.edges expected.p1 got.p1
      expected.p2 got.p2

(* Jobs 2 must reproduce the timed jobs-1 results exactly. *)
let check_jobs2 what program ~digest0 ~counts0 =
  let a2 = Analysis.run ~jobs:2 program in
  if digest a2 <> digest0 then problem "%s: jobs 1 and jobs 2 summaries differ" what;
  check_counts (what ^ ": jobs 1 vs jobs 2") counts0 (counts a2)

(* The paper's Table 2 memory column: the live heap one Analysis.t
   retains.  Its summaries must match the verified ones. *)
let live_mb program ~digest0 =
  let a, bytes = Memmeter.measure (fun () -> Analysis.run ~jobs program) in
  if digest a <> digest0 then problem "repeated analysis: summaries differ";
  Memmeter.megabytes bytes

let halting_value program =
  match Spike_interp.Machine.execute ~fuel:50_000_000 program with
  | Spike_interp.Machine.Halted v -> Some v
  | Spike_interp.Machine.Trapped _ -> None

let store_dir () =
  let dir = Printf.sprintf ".bench_work/store-%d" (Unix.getpid ()) in
  at_exit (fun () ->
      (try Sys.remove (Filename.concat dir Store.file_name) with Sys_error _ -> ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      try Unix.rmdir ".bench_work" with Unix.Unix_error _ -> ());
  dir

let store_file dir = Filename.concat dir Store.file_name
let store_bytes dir = (Unix.stat (store_file dir)).Unix.st_size

let read_store dir =
  let ic = open_in_bin (store_file dir) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_store dir bytes =
  let oc = open_out_bin (store_file dir) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes)

(* --- Statistics and output -------------------------------------------------- *)

let sorted xs = List.sort Float.compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it.  Below a
   hundred samples that percentile falls under p90 (under the median
   below twenty), so the maximum stands in for it. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, 0.0)
  else if n < 100 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* The classes of a list of class-tagged samples. *)
let classes xs = List.sort_uniq compare (List.map fst xs)

(* The typical time of an operation: each class's median, averaged over
   the classes.  A plain median over a mix of programs would jump from
   one program's times to another's with the number of samples a run
   takes. *)
let typical xs =
  let cs = classes xs in
  let per c = median (List.filter_map (fun (c', x) -> if c' = c then Some x else None) xs) in
  List.fold_left (fun t c -> t +. per c) 0.0 cs /. float_of_int (List.length cs)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let print_metric m = Printf.printf "%-28s %16.6f %-6s %s\n" m.name m.value m.unit_ m.note

(* Prints every metric by name with its unit (and the [info] lines, which
   the result line leaves out), then the result line. *)
let finish ?(info = []) ~metrics ~extra () =
  List.iter print_metric (metrics @ info);
  let error_rate =
    if !attempted = 0 then 0.0 else float_of_int !failed /. float_of_int !attempted
  in
  Printf.printf "%-28s %16.6f %-6s (%d failed of %d attempted)\n" "error_rate"
    error_rate "ratio" !failed !attempted;
  let correct = !problems = 0 && !failed = 0 && !attempted > 0 in
  let result =
    json_obj
      [
        ("correct", string_of_bool correct);
        ("attempted", string_of_int (max 1 !attempted));
        ("failed", string_of_int !failed);
        ( "metrics",
          json_obj
            (List.map
               (fun m ->
                 ( m.name,
                   json_obj
                     [ ("value", json_float m.value); ("unit", json_string m.unit_) ] ))
               metrics) );
      ]
  in
  if !out <> "" then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !out in
    output_string oc
      (json_obj
         ([
            ("workload", json_string !workload);
            ("seed", string_of_int !seed);
            ("trace", string_of_int !trace);
            ("result", result);
          ]
         @ extra));
    output_char oc '\n';
    close_out oc
  end;
  print_endline result;
  exit (if correct then 0 else 1)

(* --- Layer spans (trace mode) ------------------------------------------------ *)

(* Spans recorded by the benchmark around calls into each layer: name,
   start, end and parent.  A layer's self time is its duration minus the
   part its children cover. *)
module Spans = struct
  type span = { sname : string; start : float; mutable stop : float; parent : int }

  let all : span Vec.t = Vec.create ()
  let open_ = ref (-1)

  let with_span name f =
    let id = Vec.length all in
    Vec.push all { sname = name; start = now (); stop = nan; parent = !open_ };
    let saved = !open_ in
    open_ := id;
    Fun.protect
      ~finally:(fun () ->
        (Vec.get all id).stop <- now ();
        open_ := saved)
      f

  let duration s = s.stop -. s.start

  (* Total duration of every span named [name]. *)
  let total name =
    Vec.fold (fun t s -> if s.sname = name then t +. duration s else t) 0.0 all

  let last name =
    let found = ref (-1) in
    Vec.iteri (fun i s -> if s.sname = name then found := i) all;
    !found

  (* Share of a span's wall time that its child spans cover: one minus
     the span's self time over its duration. *)
  let coverage id =
    let covered = Vec.fold (fun t c -> if c.parent = id then t +. duration c else t) 0.0 all in
    covered /. duration (Vec.get all id)
end

let span = Spans.with_span

let heap_mb () = Memmeter.megabytes (Memmeter.sample_bytes ())

(* The cold pipeline, stage by stage, as Analysis.run performs it. *)
type replay = {
  r_analysis_digest : string;
  r_program : Program.t;
  r_locals : Psg_build.local array;
  r_filters : Regset.t array;
  r_psg : Psg.t;
  r_sched : Sched.t;
  r_p1 : int;
  r_p2 : int;
  r_blocks : int;
  r_heap : (string * float) list;
}

let replay_cold text =
  let heap = ref [] in
  let after stage = heap := (stage, heap_mb ()) :: !heap in
  span "op" @@ fun () ->
  let p = span "asm.parse" (fun () -> Spike_asm.Parser.program_of_string text) in
  after "parse";
  (match span "ir.validate" (fun () -> Validate.check p) with
  | Ok () -> ()
  | Error _ -> failwith "replayed input does not validate");
  let pool = span "pool.create" (fun () -> Pool.create ~jobs) in
  Fun.protect ~finally:(fun () -> span "pool.shutdown" (fun () -> Pool.shutdown pool))
  @@ fun () ->
  let routines = Program.routines p in
  let n = Array.length routines in
  let cfgs =
    span "cfg.build" (fun () -> Pool.parallel_map_array pool Spike_cfg.Cfg.build routines)
  in
  after "cfg";
  let defuses =
    span "cfg.defuse" (fun () -> Pool.parallel_map_array pool Spike_cfg.Defuse.compute cfgs)
  in
  let filters =
    span "callee_saved.filter" (fun () ->
        Pool.parallel_init pool n (fun r ->
            Callee_saved.saved_and_restored routines.(r) cfgs.(r)))
  in
  let resolve_targets = Psg_build.resolver ~externals:(fun _ -> None) p in
  let locals =
    span "psg_build.local" (fun () ->
        Pool.parallel_init pool n (fun r ->
            Psg_build.local_pass ~branch_nodes:true ~resolve_targets r cfgs.(r)
              defuses.(r)))
  in
  let psg = span "psg_build.stitch" (fun () -> Psg_build.stitch ~entry_filters:filters p locals) in
  after "psg";
  let sched = span "sched.make" (fun () -> Sched.make ~pool psg) in
  after "sched";
  let p1 = span "phase1" (fun () -> Phase1.run ~sched psg) in
  let classes = span "summary.extract" (fun () -> Summary.extract_call_classes psg) in
  after "phase1";
  let p2 = span "phase2" (fun () -> Phase2.run ~sched psg) in
  let summaries = span "summary.extract" (fun () -> Summary.extract psg classes) in
  after "phase2";
  {
    r_analysis_digest = Digest.string (Marshal.to_string summaries [ Marshal.No_sharing ]);
    r_program = p;
    r_locals = locals;
    r_filters = filters;
    r_psg = psg;
    r_sched = sched;
    r_p1 = p1;
    r_p2 = p2;
    r_blocks = Array.fold_left (fun s c -> s + Spike_cfg.Cfg.block_count c) 0 cfgs;
    r_heap = List.rev !heap;
  }

(* The FIFO driver on a freshly stitched PSG of the same program. *)
let replay_fifo (r : replay) =
  let psg = Psg_build.stitch ~entry_filters:r.r_filters r.r_program r.r_locals in
  let (), secs =
    time (fun () ->
        ignore (Phase1.run psg);
        let classes = Summary.extract_call_classes psg in
        ignore (Phase2.run psg);
        let summaries = Summary.extract psg classes in
        if Digest.string (Marshal.to_string summaries [ Marshal.No_sharing ])
           <> r.r_analysis_digest
        then problem "FIFO summaries differ from the SCC schedule's")
  in
  secs

(* Components, the largest, and the available parallelism: total
   component work (PSG nodes) over the heaviest path through the
   condensation, whose numbering lists callees first. *)
let sched_shape (s : Sched.t) =
  let scc = s.Sched.scc in
  let count = scc.Scc.count in
  let work c = float_of_int (Array.length s.Sched.comp_nodes_p1.(c)) in
  let path = Array.make count 0.0 in
  let total = ref 0.0 in
  for c = 0 to count - 1 do
    let longest = Array.fold_left (fun m d -> Float.max m path.(d)) 0.0 scc.Scc.succs.(c) in
    path.(c) <- work c +. longest;
    total := !total +. work c
  done;
  let critical = Array.fold_left Float.max 0.0 path in
  (count, Scc.largest scc, if critical > 0.0 then !total /. critical else 1.0)

(* Opt.run, pass by pass. *)
let replay_opt (a : Analysis.t) =
  let reanalyses = ref 0 and rounds = ref 0 and removed = ref 0 in
  let rerun a p =
    incr reanalyses;
    span "opt.reanalysis" (fun () -> Analysis.rerun a p)
  in
  span "opt" @@ fun () ->
  let p, _ = span "opt.spill" (fun () -> Spike_opt.Spill.apply a) in
  let a = rerun a p in
  let p, _ = span "opt.save_restore" (fun () -> Spike_opt.Save_restore.apply a) in
  let a = rerun a p in
  let rec dead a =
    incr rounds;
    let live = span "opt.liveness" (fun () -> Spike_opt.Liveness.compute a) in
    let p, n =
      span "opt.dead_code" (fun () ->
          let n = ref 0 in
          let routines =
            Array.mapi
              (fun r routine ->
                match Spike_opt.Dead_code.find_dead a live ~routine:r with
                | [] -> routine
                | d ->
                    n := !n + List.length d;
                    Spike_opt.Rewrite.delete_instructions routine d)
              (Program.routines a.Analysis.program)
          in
          ( Program.make ~main:(Program.main a.Analysis.program) (Array.to_list routines),
            !n ))
    in
    removed := !removed + n;
    if n = 0 then p else dead (rerun a p)
  in
  let p = dead a in
  (p, !reanalyses, !rounds, !removed)

(* --- Set-up ------------------------------------------------------------------ *)

type state = { program : Program.t array; text : string array }

(* Generate and print the run's programs; on the edit workload, write the
   base version's store as [spike analyze --store] would. *)
let setup_once ~dir =
  let program = Array.init programs generate in
  let text = Array.map print program in
  if kind = Edit then Store.save ~dir (Analysis.run ~jobs ~capture:true program.(0));
  { program; text }

(* Set up [reps] times (the median is reported), then one warm-up
   operation per program.  Each warm-up result is checked against the
   reference outside the timing and dropped: only its digest and counters
   are kept, which keeps the heap small for the checks that follow. *)
let setup ~dir ~reps =
  let times = ref [] and st = ref None in
  for _ = 1 to reps do
    st := None;
    settle ();
    let s, secs = time (fun () -> setup_once ~dir) in
    st := Some s;
    times := secs :: !times
  done;
  let st = Option.get !st in
  let warmup = ref 0.0 in
  let verified =
    Array.mapi
      (fun i text ->
        settle ();
        let a, secs = time (fun () -> cold text) in
        warmup := !warmup +. secs;
        check_reference (Printf.sprintf "program %d" i) a;
        (digest a, counts a))
      st.text
  in
  (st, Array.map fst verified, Array.map snd verified, median !times +. !warmup)

(* Checks outside every timed interval: jobs 2 on every program, and the
   live heap, averaged over the programs. *)
let check_base st ~digest0 ~counts0 =
  Array.iteri
    (fun i p ->
      check_jobs2 (Printf.sprintf "program %d" i) p ~digest0:digest0.(i) ~counts0:counts0.(i))
    st.program;
  let live = Array.mapi (fun i p -> live_mb p ~digest0:digest0.(i)) st.program in
  Array.fold_left ( +. ) 0.0 live /. float_of_int programs

(* --- Measured loops ------------------------------------------------------------ *)

(* Timings are kept with the class of their operation: the program on the
   optimizer workload, 0 on the edit workload. *)
type samples = {
  mutable analyze : (int * float) list;
  mutable op : (int * float) list;
  mutable stream : string list;  (** per-edit deterministic counters, JSON *)
  mutable insns_after : int list;  (** per program *)
}

(* Each program's optimized output: its printed digest, checked in full
   (validation, the interpreter against the input's halting value) the
   first time. *)
let opt_loop ~deadline st ~digest0 ~counts0 ~expected s =
  let outputs = Array.make programs None in
  let i = ref 0 in
  while !i < programs || now () < deadline do
    let k = !i mod programs in
    incr i;
    match
      timed_op (fun () ->
          let a, analyze_secs = time (fun () -> cold st.text.(k)) in
          let p, report = Spike_opt.Opt.run a in
          (a, analyze_secs, p, report))
    with
    | None -> ()
    | Some ((a, analyze_secs, p, report), secs) -> (
        s.analyze <- (k, analyze_secs) :: s.analyze;
        s.op <- (k, secs) :: s.op;
        if digest a <> digest0.(k) then op_failed "optimizer input summaries differ";
        check_counts "repeated analysis" counts0.(k) (counts a);
        let after = report.Spike_opt.Opt.instructions_after in
        let d = Digest.string (print p) in
        match outputs.(k) with
        | Some (d', after') ->
            if d <> d' || after <> after' then op_failed "optimizer output differs between runs"
        | None ->
            outputs.(k) <- Some (d, after);
            if Validate.check p <> Ok () then op_failed "optimized program does not validate"
            else if halting_value p <> expected.(k) then
              op_failed "optimized program does not halt with the input's value")
  done;
  s.insns_after <-
    Array.to_list (Array.map (function Some (_, n) -> n | None -> 0) outputs)

(* Timed repetitions of each version's disk-store operation.  Before each
   one the store file is reset to the previous version's, so every
   repetition does the same work. *)
let warm_reps = 3

(* One edit stream: each version analysed cold (the verified digest for
   that version) and through the disk store, until the deadline once
   every edit size has been measured. *)
let edit_loop ~deadline ~dir st s =
  let edits = Edit.stream () in
  let sizes = Edit.sizes (Program.routine_count st.program.(0)) in
  let program = ref st.program.(0) in
  let previous = ref (read_store dir) in
  let final_digest = ref "" in
  let version = ref 0 in
  while !version < Array.length sizes || now () < deadline do
    let k = sizes.(!version mod Array.length sizes) in
    incr version;
    let p = Edit.apply edits !program k in
    let text = print p in
    program := p;
    match timed_op (fun () -> cold text) with
    | None -> ()
    | Some (a, secs) ->
        s.analyze <- (0, secs) :: s.analyze;
        let d = digest a and cold = counts a in
        final_digest := d;
        let first = ref None in
        for _ = 1 to warm_reps do
          write_store dir !previous;
          match timed_op (fun () -> via_disk ~dir text) with
          | None -> ()
          | Some ((w, loaded), secs) -> (
              (* One class: parsing and the store's decode dominate this
                 path, so the edit size moves its time by less than the
                 noise, and a median over all samples is the steadiest. *)
              s.op <- (0, secs) :: s.op;
              if digest w <> d then op_failed "warm summaries differ from cold";
              if loaded.Store.degraded <> None then op_failed "store degraded";
              let record =
                json_obj
                  [
                    ("edit", string_of_int k);
                    ("nodes", string_of_int cold.nodes);
                    ("cold_p1", string_of_int cold.p1);
                    ("reused", string_of_int w.Analysis.reused_routines);
                    ("hits", string_of_int loaded.Store.hits);
                    ("warm_p1", string_of_int w.Analysis.phase1_iterations);
                    ("warm_p2", string_of_int w.Analysis.phase2_iterations);
                    ("store_bytes", string_of_int (store_bytes dir));
                  ]
              in
              match !first with
              | None ->
                  first := Some record;
                  s.stream <- record :: s.stream
              | Some r -> if r <> record then problem "warm counters differ between repetitions")
        done;
        previous := read_store dir
  done;
  (* The stream's final version against the reference. *)
  let a = Analysis.run ~jobs !program in
  if digest a <> !final_digest then problem "final version: cold digest not reproducible";
  check_reference "final edited version" a

let end_to_end dir =
  let st, digest0, counts0, setup_s = setup ~dir ~reps:setup_reps in
  let live_mb = check_base st ~digest0 ~counts0 in
  let expected = if kind = Optimize then Array.map halting_value st.program else [||] in
  Array.iteri (fun i v -> if v = None then problem "program %d does not halt" i) expected;
  let s = { analyze = []; op = []; stream = []; insns_after = [] } in
  let deadline = now () +. !seconds in
  (match kind with
  | Optimize -> opt_loop ~deadline st ~digest0 ~counts0 ~expected s
  | Edit -> edit_loop ~deadline ~dir st s);
  let typical_note xs =
    match classes xs with
    | [ _ ] -> Printf.sprintf "(median of %d)" (List.length xs)
    | cs ->
        Printf.sprintf "(mean of %d programs' medians, %d samples)" (List.length cs)
          (List.length xs)
  in
  let tail_metric name xs =
    let v, pct = tail (List.map snd xs) in
    metric (name ^ "_tail_s") "s" v
      ~note:(Printf.sprintf "(p%.0f of %d samples; not gated)" pct (List.length xs))
  in
  let timing name xs = metric (name ^ "_s") "s" (typical xs) ~note:(typical_note xs) in
  let metrics =
    [
      metric "setup_s" "s" setup_s ~note:(Printf.sprintf "(median of %d)" setup_reps);
      timing "analyze" s.analyze;
      timing "op" s.op;
      metric "live_mb" "MB" live_mb;
    ]
  in
  let floats xs = json_list json_float (List.rev_map snd xs) in
  let per_program f = json_list string_of_int (Array.to_list (Array.map f counts0)) in
  finish ~metrics
    ~info:[ tail_metric "analyze" s.analyze; tail_metric "op" s.op ]
    ~extra:
      [
        ( "counters",
          json_obj
            [
              ("psg.nodes", per_program (fun c -> c.nodes));
              ("psg.edges", per_program (fun c -> c.edges));
              ("phase1.iterations", per_program (fun c -> c.p1));
              ("phase2.iterations", per_program (fun c -> c.p2));
              ("stream", json_list Fun.id (List.rev s.stream));
              ("opt.insns_after", json_list string_of_int s.insns_after);
            ] );
        ("samples", json_obj [ ("analyze_s", floats s.analyze); ("op_s", floats s.op) ]);
      ]
    ()

(* --- The traced run ------------------------------------------------------------ *)

let per_layer dir =
  let st, digest0, counts0, _ = setup ~dir ~reps:1 in
  ignore (check_base st ~digest0 ~counts0);
  let text = st.text.(0) and program = st.program.(0) in
  let digest0 = digest0.(0) and counts0 = counts0.(0) in
  (* The untraced reference: two more cold operations. *)
  let untraced =
    List.init 2 (fun _ ->
        settle ();
        let a, secs = time (fun () -> cold text) in
        if digest a <> digest0 then problem "untraced summaries differ";
        secs)
  in
  settle ();
  (* The replay's own heap peak: the largest major heap sampled at the end
     of each major collection inside it and at its stage boundaries.
     (Gc's top_heap_words would be the whole process's, oracle included.) *)
  let peak = ref 0.0 in
  let alarm = Gc.create_alarm (fun () -> peak := Float.max !peak (heap_mb ())) in
  let gc0 = Gc.quick_stat () in
  let r = replay_cold text in
  let gc1 = Gc.quick_stat () in
  Gc.delete_alarm alarm;
  let top_heap_mb = List.fold_left (fun m (_, mb) -> Float.max m mb) !peak r.r_heap in
  let root = Spans.last "op" in
  let op_s = Spans.duration (Vec.get Spans.all root) in
  let coverage = Spans.coverage root in
  incr attempted;
  if r.r_analysis_digest <> digest0 then
    op_failed "replayed summaries differ from Analysis.run";
  check_counts "replayed pipeline" counts0
    { nodes = Psg.node_count r.r_psg; edges = Psg.edge_count r.r_psg; p1 = r.r_p1; p2 = r.r_p2 };
  if coverage < 0.9 then problem "layer spans cover only %.1f%% of the operation" (100.0 *. coverage);
  let fifo_s = replay_fifo r in
  let components, largest, parallelism = sched_shape r.r_sched in
  let mwords x = x /. 1e6 in
  (* Warm-path layers, over one cycle of edits through the disk store and
     through a resident session (Store.replan / warm run / Store.retain). *)
  let seen = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace seen name (v :: Option.value ~default:[] (Hashtbl.find_opt seen name))
  in
  let med name = match Hashtbl.find_opt seen name with Some l -> median l | None -> 0.0 in
  let sum name =
    match Hashtbl.find_opt seen name with
    | Some l -> List.fold_left ( +. ) 0.0 l
    | None -> 0.0
  in
  let last_bytes = ref 0 in
  if kind = Edit then begin
    let edits = Edit.stream () in
    let sizes = Edit.sizes (Program.routine_count program) in
    let program = ref program in
    let session = ref (Store.retain (Analysis.run ~jobs ~capture:true !program)) in
    Array.iter
      (fun k ->
        let p = Edit.apply edits !program k in
        let text = print p in
        program := p;
        let d = digest (cold text) in
        let (), fp =
          time (fun () ->
              Array.iter
                (fun rt -> ignore (Spike_store.Fingerprint.routine ~externals:(fun _ -> None) p rt))
                (Program.routines p))
        in
        add "fingerprint.s" fp;
        incr attempted;
        let p = parse text in
        let loaded, t_load = time (fun () -> Store.load ~dir p) in
        let w = Analysis.run ~jobs ~warm:loaded.Store.plan ~capture:true p in
        let (), t_save = time (fun () -> Store.save ~dir w) in
        add "store.load_s" t_load;
        add "store.save_s" t_save;
        last_bytes := store_bytes dir;
        let replanned, t_replan = time (fun () -> Store.replan !session p) in
        let m = Analysis.run ~jobs ~warm:replanned.Store.plan ~capture:true p in
        let next, t_retain = time (fun () -> Store.retain m) in
        session := next;
        add "store.replan_s" t_replan;
        add "store.retain_s" t_retain;
        if digest w <> d || digest m <> d then op_failed "warm summaries differ from cold";
        if loaded.Store.degraded <> None || replanned.Store.degraded <> None then
          op_failed "store degraded";
        (* Jobs 2 must reproduce the warm run's counters too. *)
        let w2 = Analysis.run ~jobs:2 ~warm:loaded.Store.plan p in
        if (w2.Analysis.phase1_iterations, w2.Analysis.phase2_iterations, digest w2)
           <> (w.Analysis.phase1_iterations, w.Analysis.phase2_iterations, digest w)
        then problem "warm run: jobs 1 and jobs 2 differ";
        add "warm.analysis_s" (Analysis.total_seconds w);
        add "warm.sched_s" (Timer.get w.Analysis.timer Analysis.stage_sched);
        add "warm.reused_routines" (float_of_int w.Analysis.reused_routines);
        add "warm.phase1_iterations" (float_of_int w.Analysis.phase1_iterations);
        add "warm.phase2_iterations" (float_of_int w.Analysis.phase2_iterations);
        add "store.hits" (float_of_int loaded.Store.hits);
        add "store.invalidated" (float_of_int loaded.Store.invalidated);
        add "store.degradations"
          (if loaded.Store.degraded = None && replanned.Store.degraded = None then 0.0
           else 1.0))
      sizes
  end;
  (* The optimizer, pass by pass, against Opt.run. *)
  let opt_counts = ref (0, 0, 0, 0) in
  if kind = Optimize then begin
    incr attempted;
    let a = cold text in
    let expected_p, report = Spike_opt.Opt.run a in
    let p, reanalyses, rounds, removed = replay_opt a in
    if print p <> print expected_p then op_failed "replayed optimizer output differs from Opt.run";
    if Validate.check p <> Ok () then op_failed "optimized program does not validate";
    if halting_value p <> halting_value program then
      op_failed "optimized program does not halt with the input's value";
    opt_counts := (reanalyses, rounds, removed, report.Spike_opt.Opt.instructions_after)
  end;
  let reanalyses, rounds, removed, insns_after = !opt_counts in
  let s name = Spans.total name in
  let count name v = metric name "count" (float_of_int v) in
  let metrics =
    [
      metric "asm.parse_s" "s" (s "asm.parse");
      metric "ir.validate_s" "s" (s "ir.validate");
      metric "cfg.build_s" "s" (s "cfg.build");
      metric "cfg.defuse_s" "s" (s "cfg.defuse");
      count "cfg.blocks" r.r_blocks;
      metric "callee_saved.filter_s" "s" (s "callee_saved.filter");
      metric "psg_build.local_s" "s" (s "psg_build.local");
      metric "psg_build.stitch_s" "s" (s "psg_build.stitch");
      count "psg.nodes" (Psg.node_count r.r_psg);
      count "psg.edges" (Psg.edge_count r.r_psg);
      metric "sched.make_s" "s" (s "sched.make");
      count "sched.components" components;
      count "sched.largest_scc" largest;
      metric "sched.parallelism" "ratio" parallelism;
      metric "phase1.s" "s" (s "phase1");
      count "phase1.iterations" r.r_p1;
      metric "phase2.s" "s" (s "phase2");
      count "phase2.iterations" r.r_p2;
      metric "summary.extract_s" "s" (s "summary.extract");
      metric "phases.scc_s" "s" (s "sched.make" +. s "phase1" +. s "phase2");
      metric "phases.fifo_s" "s" fifo_s;
      metric "warm.analysis_s" "s" (med "warm.analysis_s");
      metric "warm.sched_s" "s" (med "warm.sched_s");
      metric "warm.reused_routines" "count" (sum "warm.reused_routines");
      metric "warm.phase1_iterations" "count" (sum "warm.phase1_iterations");
      metric "warm.phase2_iterations" "count" (sum "warm.phase2_iterations");
      metric "store.load_s" "s" (med "store.load_s");
      metric "store.save_s" "s" (med "store.save_s");
      metric "store.bytes" "bytes" (float_of_int !last_bytes);
      metric "store.hits" "count" (sum "store.hits");
      metric "store.invalidated" "count" (sum "store.invalidated");
      metric "store.degradations" "count" (sum "store.degradations");
      metric "store.replan_s" "s" (med "store.replan_s");
      metric "store.retain_s" "s" (med "store.retain_s");
      metric "fingerprint.s" "s" (med "fingerprint.s");
      metric "opt.spill_s" "s" (s "opt.spill");
      metric "opt.save_restore_s" "s" (s "opt.save_restore");
      metric "opt.liveness_s" "s" (s "opt.liveness");
      metric "opt.dead_code_s" "s" (s "opt.dead_code");
      metric "opt.reanalysis_s" "s" (s "opt.reanalysis");
      count "opt.reanalyses" reanalyses;
      count "opt.dead_rounds" rounds;
      count "opt.dead_removed" removed;
      count "opt.insns_after" insns_after;
      metric "gc.minor_mwords" "Mword" (mwords (gc1.Gc.minor_words -. gc0.Gc.minor_words));
      metric "gc.promoted_mwords" "Mword"
        (mwords (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
      count "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
      metric "gc.top_heap_mb" "MB" top_heap_mb;
    ]
    @ List.map (fun (stage, mb) -> metric ("heap.after." ^ stage ^ "_mb") "MB" mb) r.r_heap
    @ [
        metric "trace.op_s" "s" op_s;
        metric "trace.untraced_s" "s" (median untraced);
        metric "trace.overhead_s" "s" (op_s -. median untraced);
        metric "trace.coverage" "ratio" coverage;
      ]
  in
  finish ~metrics ~extra:[] ()

let () =
  let dir = store_dir () in
  if !trace = 0 then end_to_end dir else per_layer dir
