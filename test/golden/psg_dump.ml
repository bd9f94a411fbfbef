(* Golden PSG dump of one analysed program ({!Golden_dump.print}).

   psg_dump.exe FILE.s [--externals FILE.sum]

   Nodes are printed by id with their kind, routine and block (an entry
   node's entry label); each node's out-edges follow in order as
   (dst, MAY-USE, MAY-DEF, MUST-DEF).  Edge ids are not printed: they are
   a numbering detail, while a node's ordered out-edges are the graph.
   The last lines give the cold run's phase iteration counts and its
   call-return label updates, which pin how the fixpoints got there. *)

let () =
  let run =
    match Array.to_list Sys.argv with
    | [ _; file ] -> Golden_dump.analyse file
    | [ _; file; "--externals"; sum ] ->
        Golden_dump.analyse
          ~externals:(Spike_asm.Summaries.lookup (Spike_asm.Summaries.of_file sum))
          file
    | _ ->
        prerr_endline "usage: psg_dump FILE.s [--externals FILE.sum]";
        exit 2
  in
  Golden_dump.print Format.std_formatter run
