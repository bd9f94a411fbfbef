type t = {
  totals : (string, float ref) Hashtbl.t;
  order : string Vec.t;
  mutable recorded : float;  (** elapsed seconds of every finished outermost [record] so far *)
}

let create () = { totals = Hashtbl.create 8; order = Vec.create (); recorded = 0.0 }
let now () = Spike_obs.Clock.now ()

let bucket t stage =
  match Hashtbl.find_opt t.totals stage with
  | Some r -> r
  | None ->
      let r = ref 0.0 in
      Hashtbl.add t.totals stage r;
      Vec.push t.order stage;
      r

let add t stage secs =
  let r = bucket t stage in
  r := !r +. secs

(* [recorded] grows by the elapsed time of each record as it finishes,
   so what it gained while [f] ran is the time of the records nested in
   [f], which [stage] leaves to their own stages. *)
let record t stage f =
  let t0 = now () and before = t.recorded in
  let result = f () in
  let elapsed = now () -. t0 in
  add t stage (elapsed -. (t.recorded -. before));
  t.recorded <- before +. elapsed;
  result

let get t stage = match Hashtbl.find_opt t.totals stage with Some r -> !r | None -> 0.0
let total t = Hashtbl.fold (fun _ r acc -> acc +. !r) t.totals 0.0
let stages t = Vec.to_list (Vec.map (fun s -> (s, get t s)) t.order)

let reset t =
  Hashtbl.reset t.totals;
  Vec.clear t.order;
  t.recorded <- 0.0
