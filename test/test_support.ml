(* Unit and property tests for the support library: register sets, PRNG,
   vectors, SCCs, pools, timers. *)

open Spike_support

let regset_testable = Alcotest.testable (Regset.pp ?name:None) Regset.equal

(* --- Regset ------------------------------------------------------------ *)

(* The model: a set is a 63-entry [bool array], entry [r] for register
   [r].  Random sets are built from a random model through [of_list], so
   every law below also exercises [add]. *)
type model = bool array

let of_model (m : model) =
  Regset.of_list (List.filter (fun r -> m.(r)) (List.init Regset.bits Fun.id))

let model_of s : model = Array.init Regset.bits (fun r -> Regset.mem r s)

let arbitrary_model =
  QCheck.make
    ~print:(fun m -> Regset.to_string (of_model m))
    QCheck.Gen.(
      (* Mix sparse, dense and uniform sets so that [full]-like and
         near-empty words both occur. *)
      float_range 0.0 1.0 >>= fun density ->
      array_repeat Regset.bits (map (fun x -> x < density) (float_range 0.0 1.0)))

let arbitrary_regset = QCheck.map ~rev:model_of of_model arbitrary_model

let qcheck_regset name law = QCheck.Test.make ~name ~count:500 arbitrary_regset law

let qcheck_regset2 name law =
  QCheck.Test.make ~name ~count:500 (QCheck.pair arbitrary_regset arbitrary_regset) law

let qcheck_regset3 name law =
  QCheck.Test.make ~name ~count:500
    (QCheck.triple arbitrary_regset arbitrary_regset arbitrary_regset)
    law

let qcheck_model2 name law =
  QCheck.Test.make ~name ~count:500 (QCheck.pair arbitrary_model arbitrary_model)
    (fun (ma, mb) -> law ma mb (of_model ma) (of_model mb))

let members (m : model) = List.filter (fun r -> m.(r)) (List.init Regset.bits Fun.id)

(* The order of the former two-word representation: registers 32 .. 62 as
   an unsigned high word first, then registers 0 .. 31. *)
let model_compare (ma : model) (mb : model) =
  let word m lo hi =
    let w = ref 0 in
    for r = hi downto lo do
      w := (!w lsl 1) lor if m.(r) then 1 else 0
    done;
    !w
  in
  match Int.compare (word ma 32 62) (word mb 32 62) with
  | 0 -> Int.compare (word ma 0 31) (word mb 0 31)
  | c -> c

let agrees op ma mb s =
  Regset.equal s (of_model (Array.init Regset.bits (fun r -> op ma.(r) mb.(r))))

let regset_model =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_model2 "model union" (fun ma mb a b ->
          agrees ( || ) ma mb (Regset.union a b));
      qcheck_model2 "model inter" (fun ma mb a b ->
          agrees ( && ) ma mb (Regset.inter a b));
      qcheck_model2 "model diff" (fun ma mb a b ->
          agrees (fun x y -> x && not y) ma mb (Regset.diff a b));
      qcheck_model2 "model complement" (fun ma mb a _ ->
          agrees (fun x _ -> not x) ma mb (Regset.complement a));
      qcheck_model2 "model subset" (fun ma mb a b ->
          Regset.subset a b = Array.for_all2 (fun x y -> (not x) || y) ma mb);
      qcheck_model2 "model disjoint" (fun ma mb a b ->
          Regset.disjoint a b = Array.for_all2 (fun x y -> not (x && y)) ma mb);
      qcheck_model2 "model membership and cardinal" (fun ma _ a _ ->
          model_of a = ma && Regset.cardinal a = List.length (members ma));
      qcheck_model2 "model iter order" (fun ma _ a _ ->
          let seen = ref [] in
          Regset.iter (fun r -> seen := r :: !seen) a;
          List.rev !seen = members ma);
      qcheck_model2 "model compare is the (hi, lo) order" (fun ma mb a b ->
          Int.compare (Regset.compare a b) 0 = model_compare ma mb);
    ]

let regset_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_regset2 "union commutative" (fun (a, b) ->
          Regset.equal (Regset.union a b) (Regset.union b a));
      qcheck_regset2 "inter commutative" (fun (a, b) ->
          Regset.equal (Regset.inter a b) (Regset.inter b a));
      qcheck_regset3 "union associative" (fun (a, b, c) ->
          Regset.equal
            (Regset.union a (Regset.union b c))
            (Regset.union (Regset.union a b) c));
      qcheck_regset3 "distributivity" (fun (a, b, c) ->
          Regset.equal
            (Regset.inter a (Regset.union b c))
            (Regset.union (Regset.inter a b) (Regset.inter a c)));
      qcheck_regset "complement involutive" (fun a ->
          Regset.equal a (Regset.complement (Regset.complement a)));
      qcheck_regset "de morgan" (fun a ->
          Regset.equal
            (Regset.complement a)
            (Regset.diff Regset.full a));
      qcheck_regset2 "diff as inter-complement" (fun (a, b) ->
          Regset.equal (Regset.diff a b) (Regset.inter a (Regset.complement b)));
      qcheck_regset2 "subset iff union absorbs" (fun (a, b) ->
          Regset.subset a b = Regset.equal (Regset.union a b) b);
      qcheck_regset2 "disjoint iff empty inter" (fun (a, b) ->
          Regset.disjoint a b = Regset.is_empty (Regset.inter a b));
      qcheck_regset "to_list/of_list roundtrip" (fun a ->
          Regset.equal a (Regset.of_list (Regset.to_list a)));
      qcheck_regset "cardinal = length of to_list" (fun a ->
          Regset.cardinal a = List.length (Regset.to_list a));
      qcheck_regset "bits roundtrip" (fun a ->
          Regset.equal a (Regset.of_int (Regset.to_int a))
          && Regset.to_int a
             = List.fold_left (fun w r -> w lor (1 lsl r)) 0 (Regset.to_list a));
      qcheck_regset2 "compare consistent with equal" (fun (a, b) ->
          Regset.compare a b = 0 = Regset.equal a b);
    ]

let test_regset_basics () =
  Alcotest.(check int) "bits" 63 Regset.bits;
  Alcotest.(check bool) "empty is empty" true (Regset.is_empty Regset.empty);
  Alcotest.(check int) "full cardinal" 63 (Regset.cardinal Regset.full);
  Alcotest.(check int) "full is every bit" (-1) (Regset.to_int Regset.full);
  let s = Regset.of_list [ 0; 31; 32; 62 ] in
  Alcotest.(check bool) "mem 0" true (Regset.mem 0 s);
  Alcotest.(check bool) "mem 62" true (Regset.mem 62 s);
  Alcotest.(check bool) "not mem 1" false (Regset.mem 1 s);
  Alcotest.(check (list int)) "sorted members" [ 0; 31; 32; 62 ] (Regset.to_list s);
  Alcotest.(check regset_testable) "remove" (Regset.of_list [ 0; 31; 62 ])
    (Regset.remove 32 s);
  Alcotest.(check (option int)) "choose" (Some 0) (Regset.choose s);
  Alcotest.(check (option int)) "choose empty" None (Regset.choose Regset.empty);
  Alcotest.(check regset_testable) "filter"
    (Regset.of_list [ 32; 62 ])
    (Regset.filter (fun r -> r >= 32) s);
  Alcotest.(check bool) "register 62 sorts highest" true
    (Regset.compare (Regset.singleton 62) (Regset.of_list [ 0; 61 ]) > 0);
  Alcotest.check_raises "register 63 is outside the universe"
    (Invalid_argument "Regset: register 63 out of range")
    (fun () -> ignore (Regset.singleton 63));
  Alcotest.check_raises "out of range" (Invalid_argument "Regset: register 64 out of range")
    (fun () -> ignore (Regset.singleton 64));
  Alcotest.(check string) "printing" "{r1, r33}"
    (Regset.to_string (Regset.of_list [ 1; 33 ]))

(* --- Prng --------------------------------------------------------------- *)

let test_prng () =
  let g1 = Prng.create 7 and g2 = Prng.create 7 in
  let a = List.init 100 (fun _ -> Prng.next g1) in
  let b = List.init 100 (fun _ -> Prng.next g2) in
  Alcotest.(check (list int)) "deterministic" a b;
  let g3 = Prng.create 8 in
  let c = List.init 100 (fun _ -> Prng.next g3) in
  if a = c then Alcotest.fail "different seeds should differ";
  let g = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int g 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of bounds: %d" v;
    let w = Prng.int_in g 5 9 in
    if w < 5 || w > 9 then Alcotest.failf "int_in out of bounds: %d" w;
    let f = Prng.float g 2.0 in
    if f < 0.0 || f >= 2.0 then Alcotest.failf "float out of bounds: %f" f
  done;
  (* A split stream differs from its parent's continuation. *)
  let parent = Prng.create 99 in
  let child = Prng.split parent in
  let xs = List.init 50 (fun _ -> Prng.next parent) in
  let ys = List.init 50 (fun _ -> Prng.next child) in
  if xs = ys then Alcotest.fail "split stream should be independent";
  (* Shuffle permutes. *)
  let a = Array.init 50 Fun.id in
  Prng.shuffle (Prng.create 3) a;
  Alcotest.(check (list int)) "shuffle is a permutation" (List.init 50 Fun.id)
    (List.sort Int.compare (Array.to_list a))

let test_prng_chance_balance () =
  let g = Prng.create 5 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.chance g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  if rate < 0.27 || rate > 0.33 then Alcotest.failf "chance 0.3 measured %.3f" rate

(* --- Vec ---------------------------------------------------------------- *)

let test_vec () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check (option int)) "last" (Some 99) (Vec.last v);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Alcotest.check_raises "bounds" (Invalid_argument "Vec: index 99 out of bounds (len 99)")
    (fun () -> ignore (Vec.get v 99));
  let l = [ 5; 6; 7 ] in
  Alcotest.(check (list int)) "of_list/to_list" l (Vec.to_list (Vec.of_list l));
  Alcotest.(check (list int)) "map" [ 10; 12; 14 ]
    (Vec.to_list (Vec.map (fun x -> 2 * x) (Vec.of_list l)));
  Alcotest.(check int) "fold" 18 (Vec.fold (fun acc x -> acc + x) 0 (Vec.of_list l));
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 6) (Vec.of_list l));
  Vec.clear v;
  Alcotest.(check bool) "clear" true (Vec.is_empty v)

(* --- Scc ----------------------------------------------------------------- *)

let arbitrary_digraph =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 24 >>= fun n ->
      list_size (int_range 0 (3 * n))
        (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun edges ->
      let succs = Array.make n [] in
      List.iter (fun (u, v) -> succs.(u) <- v :: succs.(u)) edges;
      return (Array.map Array.of_list succs))
  in
  let print succs =
    String.concat "; "
      (Array.to_list
         (Array.mapi
            (fun u ds ->
              Printf.sprintf "%d->[%s]" u
                (String.concat ","
                   (Array.to_list (Array.map string_of_int ds))))
            succs))
  in
  QCheck.make ~print gen

(* Transitive reachability by DFS from every vertex — the specification the
   linear-time implementation is checked against (graphs are small). *)
let reachability succs =
  let n = Array.length succs in
  let r = Array.make_matrix n n false in
  for s = 0 to n - 1 do
    r.(s).(s) <- true;
    let stack = ref [ s ] in
    while !stack <> [] do
      let u = List.hd !stack in
      stack := List.tl !stack;
      Array.iter
        (fun v ->
          if not r.(s).(v) then begin
            r.(s).(v) <- true;
            stack := v :: !stack
          end)
        succs.(u)
    done
  done;
  r

let qcheck_scc name law =
  QCheck.Test.make ~name ~count:300 arbitrary_digraph law

let scc_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_scc "components = mutual reachability classes" (fun succs ->
          let scc = Scc.compute ~succs in
          let r = reachability succs in
          let n = Array.length succs in
          let ok = ref true in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              let same = scc.Scc.comp_of.(u) = scc.Scc.comp_of.(v) in
              if same <> (r.(u).(v) && r.(v).(u)) then ok := false
            done
          done;
          !ok);
      qcheck_scc "members partition the vertices" (fun succs ->
          let scc = Scc.compute ~succs in
          let n = Array.length succs in
          let seen = Array.make n 0 in
          Array.iteri
            (fun c ms ->
              Array.iter
                (fun v ->
                  seen.(v) <- seen.(v) + 1;
                  if scc.Scc.comp_of.(v) <> c then raise Exit)
                ms)
            scc.Scc.members;
          Array.for_all (fun k -> k = 1) seen);
      qcheck_scc "numbering is reverse topological" (fun succs ->
          (* Every edge crossing components points at a smaller component:
             the condensation is acyclic and ascending order is a
             topological (successors-first) order. *)
          let scc = Scc.compute ~succs in
          let ok = ref true in
          Array.iteri
            (fun u ds ->
              Array.iter
                (fun v ->
                  if
                    scc.Scc.comp_of.(u) <> scc.Scc.comp_of.(v)
                    && not (scc.Scc.comp_of.(v) < scc.Scc.comp_of.(u))
                  then ok := false)
                ds)
            succs;
          !ok);
      qcheck_scc "condensation adjacency matches the edges" (fun succs ->
          let scc = Scc.compute ~succs in
          let expect = Array.make scc.Scc.count [] in
          Array.iteri
            (fun u ds ->
              Array.iter
                (fun v ->
                  let cu = scc.Scc.comp_of.(u) and cv = scc.Scc.comp_of.(v) in
                  if cu <> cv && not (List.mem cv expect.(cu)) then
                    expect.(cu) <- cv :: expect.(cu))
                ds)
            succs;
          Array.for_all2
            (fun got want -> Array.to_list got = List.sort Int.compare want)
            scc.Scc.succs expect);
    ]

let test_scc_basics () =
  (* Two mutually recursive pairs and an isolated vertex:
     0 <-> 1 -> 2 <-> 3, 4 alone. *)
  let succs = [| [| 1 |]; [| 0; 2 |]; [| 3 |]; [| 2 |]; [||] |] in
  let scc = Scc.compute ~succs in
  Alcotest.(check int) "count" 3 scc.Scc.count;
  Alcotest.(check int) "largest" 2 (Scc.largest scc);
  Alcotest.(check bool) "pair together"
    true
    (scc.Scc.comp_of.(0) = scc.Scc.comp_of.(1)
    && scc.Scc.comp_of.(2) = scc.Scc.comp_of.(3)
    && scc.Scc.comp_of.(0) <> scc.Scc.comp_of.(2));
  (* {0,1} calls into {2,3}: callee numbered first. *)
  Alcotest.(check bool) "callee first" true
    (scc.Scc.comp_of.(2) < scc.Scc.comp_of.(0));
  let empty = Scc.compute ~succs:[||] in
  Alcotest.(check int) "empty graph" 0 empty.Scc.count;
  Alcotest.(check int) "empty largest" 0 (Scc.largest empty)

let test_scc_deep_chain () =
  (* A 200k-vertex path: a recursive Tarjan would overflow the runtime
     stack here; the explicit-stack one must not. *)
  let n = 200_000 in
  let succs = Array.init n (fun v -> if v + 1 < n then [| v + 1 |] else [||]) in
  let scc = Scc.compute ~succs in
  Alcotest.(check int) "one component per vertex" n scc.Scc.count;
  (* The sink of every edge gets the smaller number. *)
  Alcotest.(check int) "sink numbered 0" 0 scc.Scc.comp_of.(n - 1);
  Alcotest.(check int) "source numbered last" (n - 1) scc.Scc.comp_of.(0);
  (* And one giant cycle: a single component, every vertex a member. *)
  let succs = Array.init n (fun v -> [| (v + 1) mod n |]) in
  let scc = Scc.compute ~succs in
  Alcotest.(check int) "cycle: one component" 1 scc.Scc.count;
  Alcotest.(check int) "cycle: all members" n (Scc.largest scc)

(* --- Pool ---------------------------------------------------------------- *)

let test_pool_ordering () =
  (* Results land at their input's index whatever the parallelism. *)
  let input = Array.init 1000 (fun i -> i) in
  let expected = Array.map (fun x -> (x * x) + 1 ) input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let got = Pool.parallel_map_array pool (fun x -> (x * x) + 1) input in
          Alcotest.(check (array int))
            (Printf.sprintf "map ordered at jobs=%d" jobs)
            expected got;
          let got = Pool.parallel_init pool 1000 (fun i -> (i * i) + 1) in
          Alcotest.(check (array int))
            (Printf.sprintf "init ordered at jobs=%d" jobs)
            expected got))
    [ 1; 2; 4; 7 ]

let test_pool_exception () =
  (* The worker's exception resurfaces on the calling domain, whether the
     failing index runs on a worker or on the caller itself. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "propagates at jobs=%d" jobs)
            (Failure "boom") (fun () ->
              ignore
                (Pool.parallel_init pool 500 (fun i ->
                     if i = 311 then failwith "boom" else i)));
          (* The pool survives a failed operation. *)
          Alcotest.(check (array int)) "usable after failure" [| 0; 1; 2 |]
            (Pool.parallel_init pool 3 Fun.id)))
    [ 1; 4 ]

let test_pool_empty_and_small () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int)) "empty input" [||]
        (Pool.parallel_map_array pool (fun x -> x) [||]);
      Alcotest.(check (array int)) "empty init" [||] (Pool.parallel_init pool 0 Fun.id);
      (* More domains than items: every item still computed exactly once. *)
      let hits = Array.make 3 0 in
      let got =
        Pool.parallel_init pool 3 (fun i ->
            hits.(i) <- hits.(i) + 1;
            i * 10)
      in
      Alcotest.(check (array int)) "jobs > items result" [| 0; 10; 20 |] got;
      Alcotest.(check (array int)) "each item once" [| 1; 1; 1 |] hits)

let test_pool_lifecycle () =
  let pool = Pool.create ~jobs:3 in
  Alcotest.(check int) "jobs clamped low" 1 Pool.(jobs (create ~jobs:0));
  Alcotest.(check int) "jobs accessor" 3 (Pool.jobs pool);
  Alcotest.(check (array int)) "works" [| 0; 1 |] (Pool.parallel_init pool 2 Fun.id);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* with_pool shuts down even when the body raises *)
  Alcotest.check_raises "with_pool reraises" Exit (fun () ->
      Pool.with_pool ~jobs:2 (fun _ -> raise Exit))

(* --- Timer and Memmeter -------------------------------------------------- *)

let test_timer () =
  let t = Timer.create () in
  let x = Timer.record t "stage-a" (fun () -> 21 * 2) in
  Alcotest.(check int) "record returns" 42 x;
  Timer.add t "stage-b" 1.5;
  Timer.add t "stage-a" 0.0;
  Alcotest.(check (list string)) "stage order" [ "stage-a"; "stage-b" ]
    (List.map fst (Timer.stages t));
  if Timer.get t "stage-b" <> 1.5 then Alcotest.fail "stage-b total";
  if Timer.total t < 1.5 then Alcotest.fail "total should include stage-b";
  Timer.reset t;
  Alcotest.(check (list string)) "reset" [] (List.map fst (Timer.stages t));
  (* A nested record counts for its own stage, not for the enclosing one. *)
  let spin secs =
    let t0 = Timer.now () in
    while Timer.now () -. t0 < secs do
      ()
    done
  in
  (* The spins only bound each stage from below, so the checks hold
     however long the process is descheduled: had the outer stage also
     counted the inner one, the two stages would sum to more than the
     time that elapsed around them. *)
  let t0 = Timer.now () in
  Timer.record t "outer" (fun () ->
      spin 0.01;
      Timer.record t "inner" (fun () -> spin 0.05));
  let elapsed = Timer.now () -. t0 in
  let outer = Timer.get t "outer" and inner = Timer.get t "inner" in
  if inner < 0.05 then Alcotest.fail "inner stage time";
  if outer < 0.01 then Alcotest.fail "outer stage time";
  if outer +. inner > elapsed +. 1e-9 then Alcotest.fail "outer stage counts the inner one";
  if Timer.total t > elapsed +. 1e-9 then Alcotest.fail "total exceeds the elapsed time"

let test_memmeter () =
  let data, bytes = Memmeter.measure (fun () -> Array.make 100_000 0) in
  Alcotest.(check int) "computed" 100_000 (Array.length data);
  (* 100k words is ~800KB on 64-bit. *)
  if bytes < 700_000 || bytes > 1_000_000 then
    Alcotest.failf "unexpected measured growth: %d bytes" bytes

let () =
  Alcotest.run "support"
    [
      ( "regset",
        (Alcotest.test_case "basics" `Quick test_regset_basics :: regset_properties)
        @ regset_model );
      ( "prng",
        [
          Alcotest.test_case "determinism and bounds" `Quick test_prng;
          Alcotest.test_case "chance balance" `Quick test_prng_chance_balance;
        ] );
      ("vec", [ Alcotest.test_case "operations" `Quick test_vec ]);
      ( "scc",
        Alcotest.test_case "basics" `Quick test_scc_basics
        :: Alcotest.test_case "deep chain and giant cycle" `Quick test_scc_deep_chain
        :: scc_properties );
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "empty and jobs > items" `Quick test_pool_empty_and_small;
          Alcotest.test_case "lifecycle" `Quick test_pool_lifecycle;
        ] );
      ("timer", [ Alcotest.test_case "stages" `Quick test_timer ]);
      ("memmeter", [ Alcotest.test_case "measure" `Quick test_memmeter ]);
    ]
