(* One immediate int: bit [r] is register [r], for [r] in [0 .. 62].  An
   OCaml int on a 64-bit platform has exactly 63 bits, so every int is a
   valid set, [full] is [-1], and no operation needs a mask.  Register 63
   ([f31], hardwired zero) never carries dataflow and is outside the
   universe. *)

type t = int

let bits = 63
let empty = 0
let full = -1

let check r =
  if r < 0 || r >= bits then
    invalid_arg (Printf.sprintf "Regset: register %d out of range" r)

let singleton r =
  check r;
  1 lsl r

let add r s =
  check r;
  s lor (1 lsl r)

(* No set holds register 63, so asking for it, or removing it, is
   answered without raising: callers test raw instruction operands, and a
   store of [f31] is an ordinary instruction. *)
let remove r s =
  if r = bits then s
  else begin
    check r;
    s land lnot (1 lsl r)
  end

let mem r s =
  r <> bits
  && begin
       check r;
       s land (1 lsl r) <> 0
     end

let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let complement a = lnot a
let equal (a : t) b = a = b

(* Unsigned: flipping the sign bit (register 62) maps the unsigned order
   onto the signed one, so sets order by registers 62 .. 32, then
   31 .. 0 — the order of the former (hi, lo) pair. *)
let compare a b = Int.compare (a lxor min_int) (b lxor min_int)

let subset a b = a land lnot b = 0
let disjoint a b = a land b = 0
let is_empty s = s = 0

let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  (x * 0x0101_0101) lsr 24 land 0xFF

let cardinal s = popcount32 (s land 0xFFFF_FFFF) + popcount32 (s lsr 32)

let iter f s =
  let rec go r s =
    if s <> 0 then begin
      if s land 1 <> 0 then f r;
      go (r + 1) (s lsr 1)
    end
  in
  go 0 s

let fold f s init =
  let acc = ref init in
  iter (fun r -> acc := f r !acc) s;
  !acc

let for_all p s = fold (fun r ok -> ok && p r) s true
let exists p s = fold (fun r found -> found || p r) s false
let filter p s = fold (fun r acc -> if p r then add r acc else acc) s empty

let choose s =
  if is_empty s then None
  else
    let rec first n = if s land (1 lsl n) <> 0 then n else first (n + 1) in
    Some (first 0)

let of_list rs = List.fold_left (fun s r -> add r s) empty rs
let to_list s = List.rev (fold (fun r acc -> r :: acc) s [])
let hash s = s lxor (s lsr 32)
let to_int s = s
let of_int w = w

let pp ?(name = fun r -> "r" ^ string_of_int r) ppf s =
  let members = to_list s in
  Format.fprintf ppf "{%s}" (String.concat ", " (List.map name members))

let to_string ?name s = Format.asprintf "%a" (pp ?name) s
