(* One shape's part of the paper-scale golden (paper_scale.golden).

   paper_scale.exe NAME FILE.s SUMMARIES OPT

   FILE.s is a generated program; SUMMARIES and OPT are what
   `spike analyze --jobs 1 --summaries-out` and `spike opt -o` wrote for
   it.  Prints the MD5 of each of them and of FILE.s's {!Golden_dump}
   (the psg_dump.exe output, with converged solutions), then the
   deterministic counters of a cold serial run: PSG size, the largest
   call-graph SCC (the recursion component the phases must converge),
   phase iterations and call-return label updates.  The dump goes
   through a temporary file, so it is never held in memory. *)

open Spike_core

let () =
  match Sys.argv with
  | [| _; name; file; summaries; opt |] ->
      let run = Golden_dump.analyse file in
      let dump = Filename.temp_file "paper_scale" ".psg" in
      Fun.protect
        ~finally:(fun () -> Sys.remove dump)
        (fun () ->
          Out_channel.with_open_bin dump (fun oc ->
              let ppf = Format.formatter_of_out_channel oc in
              Golden_dump.print ppf run;
              Format.pp_print_flush ppf ());
          let md5 f = Digest.to_hex (Digest.file f) in
          let a = run.analysis and psg = run.analysis.Analysis.psg in
          Printf.printf "%s\n" name;
          Printf.printf "  summaries %s\n  psg_dump %s\n  opt %s\n" (md5 summaries)
            (md5 dump) (md5 opt);
          Printf.printf "  psg: %d nodes, %d edges, %d calls\n" (Psg.node_count psg)
            (Psg.edge_count psg) (Psg.call_count psg);
          Printf.printf "  largest call-graph SCC: %d routines\n"
            (Spike_support.Scc.largest (Psg.call_scc psg));
          Printf.printf "  phase 1: %d iterations, %d call-return updates\n"
            a.Analysis.phase1_iterations run.cr_updates;
          Printf.printf "  phase 2: %d iterations\n" a.Analysis.phase2_iterations)
  | _ ->
      prerr_endline "usage: paper_scale NAME FILE.s SUMMARIES OPT";
      exit 2
