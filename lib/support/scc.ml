type t = {
  count : int;
  comp_of : int array;
  members : int array array;
  succs : int array array;
}

let csr n iter =
  let off = Array.make (n + 1) 0 in
  iter (fun u _ -> off.(u + 1) <- off.(u + 1) + 1);
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let adj = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  iter (fun u v ->
      adj.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1);
  (off, adj)

(* Tarjan, with the recursion turned into an explicit frame stack.  A
   frame is a vertex, the position of its next out-edge in [adj], its
   lowlink and the height of the finish stack at its discovery;
   "returning" from a child is the moment the child's frame is popped,
   which is when the parent folds the child's lowlink into its own.

   Finished vertices are pushed on the finish stack.  When a root
   finishes, every vertex finished since its discovery that is still on
   the finish stack belongs to its component (the others completed
   their own, deeper components and were popped), so the component is
   the top of the finish stack, already in postorder.  A completed
   vertex's index becomes [max_int], which makes it inert to the lowlink
   minimum; vertices outside the decomposed subset are kept at [max_int]
   too, so edges leaving the subset are ignored without a membership
   test. *)
let decomposer ~off ~adj =
  let n = Array.length off - 1 in
  let index = Array.make n max_int in
  let frame_v = Array.make n 0 in
  let frame_e = Array.make n 0 in
  let frame_low = Array.make n 0 in
  let frame_fin = Array.make n 0 in
  let fin = Array.make n 0 in
  let roots = Array.make n 0 in
  fun verts ~ends ->
    let len = Array.length verts in
    Array.blit verts 0 roots 0 len;
    for i = 0 to len - 1 do
      index.(roots.(i)) <- -1
    done;
    let next_index = ref 0 in
    let top = ref 0 in
    let fin_top = ref 0 in
    let out = ref 0 in
    let count = ref 0 in
    let discover v =
      index.(v) <- !next_index;
      frame_v.(!top) <- v;
      frame_e.(!top) <- off.(v);
      frame_low.(!top) <- !next_index;
      frame_fin.(!top) <- !fin_top;
      incr next_index;
      incr top
    in
    for i = 0 to len - 1 do
      if index.(roots.(i)) < 0 then begin
        discover roots.(i);
        while !top > 0 do
          let f = !top - 1 in
          let v = frame_v.(f) in
          let e = frame_e.(f) in
          if e < off.(v + 1) then begin
            frame_e.(f) <- e + 1;
            let iw = index.(adj.(e)) in
            if iw < 0 then discover adj.(e)
            else if iw < frame_low.(f) then frame_low.(f) <- iw
          end
          else begin
            top := f;
            fin.(!fin_top) <- v;
            incr fin_top;
            let low = frame_low.(f) in
            if f > 0 && low < frame_low.(f - 1) then frame_low.(f - 1) <- low;
            if low = index.(v) then begin
              (* [v] roots a component: the finish stack above its
                 discovery height, in finish order. *)
              let base = frame_fin.(f) in
              let size = !fin_top - base in
              Array.blit fin base verts !out size;
              for k = base to !fin_top - 1 do
                index.(fin.(k)) <- max_int
              done;
              ends.(!out) <- !out + size;
              out := !out + size;
              fin_top := base;
              incr count
            end
          end
        done
      end
    done;
    !count

let compute_csr ~off ~adj =
  let n = Array.length off - 1 in
  let verts = Array.init n Fun.id in
  let ends = Array.make n 0 in
  let count = decomposer ~off ~adj verts ~ends in
  let comp_of = Array.make n 0 in
  let members = Array.make count [||] in
  let start = ref 0 in
  for c = 0 to count - 1 do
    let m = Array.sub verts !start (ends.(!start) - !start) in
    Array.iter (fun v -> comp_of.(v) <- c) m;
    members.(c) <- m;
    start := ends.(!start)
  done;
  (* Condensation adjacency: distinct successor components, self loops
     dropped, sorted.  [seen.(d) = c] once [d] is recorded for [c]. *)
  let seen = Array.make count (-1) in
  let buf = Array.make count 0 in
  let succs =
    Array.map
      (fun m ->
        let c = comp_of.(m.(0)) in
        let k = ref 0 in
        Array.iter
          (fun u ->
            for e = off.(u) to off.(u + 1) - 1 do
              let d = comp_of.(adj.(e)) in
              if d <> c && seen.(d) <> c then begin
                seen.(d) <- c;
                buf.(!k) <- d;
                incr k
              end
            done)
          m;
        let s = Array.sub buf 0 !k in
        Array.sort Int.compare s;
        s)
      members
  in
  { count; comp_of; members; succs }

let compute ~succs =
  let off, adj =
    csr (Array.length succs) (fun f ->
        Array.iteri (fun u vs -> Array.iter (f u) vs) succs)
  in
  compute_csr ~off ~adj

let largest t =
  Array.fold_left (fun best m -> max best (Array.length m)) 0 t.members
