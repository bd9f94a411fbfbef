open Spike_support

type writer = Buffer.t

type reader = { buf : string; mutable cur : int; stop : int }

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let reader ?(pos = 0) ?len buf =
  let stop = match len with None -> String.length buf | Some l -> pos + l in
  if pos < 0 || stop > String.length buf || pos > stop then
    corrupt "reader: bad window %d+%d" pos (stop - pos);
  { buf; cur = pos; stop }

let pos r = r.cur
let at_end r = r.cur >= r.stop

let need r n =
  if n < 0 || r.stop - r.cur < n then
    corrupt "truncated: need %d bytes at %d, have %d" n r.cur (r.stop - r.cur)

let read_byte r =
  need r 1;
  let b = Char.code (String.unsafe_get r.buf r.cur) in
  r.cur <- r.cur + 1;
  b

(* Zigzag LEB128: small magnitudes of either sign stay short. *)
let write_int w v =
  let u = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
  let rec go u =
    if u land lnot 0x7f = 0 then Buffer.add_char w (Char.chr u)
    else begin
      Buffer.add_char w (Char.chr (0x80 lor (u land 0x7f)));
      go (u lsr 7)
    end
  in
  go u

let read_int_slow r first =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint too long at %d" r.cur;
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let u = go 7 first in
  (u lsr 1) lxor (-(u land 1))

let read_int r =
  (* Fast path: most stored integers fit one byte. *)
  let cur = r.cur in
  if cur >= r.stop then corrupt "truncated: need 1 byte at %d, have 0" cur;
  let b = Char.code (String.unsafe_get r.buf cur) in
  if b < 0x80 then begin
    r.cur <- cur + 1;
    (b lsr 1) lxor (-(b land 1))
  end
  else begin
    r.cur <- cur + 1;
    read_int_slow r (b land 0x7f)
  end

let write_bool w b = Buffer.add_char w (if b then '\001' else '\000')

let read_bool r =
  match read_byte r with
  | 0 -> false
  | 1 -> true
  | b -> corrupt "bad bool byte %d at %d" b (r.cur - 1)

let write_raw w s = Buffer.add_string w s

let read_raw r n =
  need r n;
  let s = String.sub r.buf r.cur n in
  r.cur <- r.cur + n;
  s

let write_string w s =
  write_int w (String.length s);
  Buffer.add_string w s

let read_string r =
  let n = read_int r in
  if n < 0 then corrupt "negative string length at %d" r.cur;
  read_raw r n

(* A register set is one little-endian 64-bit word: bit [r] is register
   [r].  Bit 63 (register 63, outside {!Regset}'s universe) is always
   written clear, so a word with it set is corrupt, not a set to
   truncate. *)
let write_regset w s =
  Buffer.add_int64_le w (Int64.logand (Int64.of_int (Regset.to_int s)) Int64.max_int)

let read_regset_at buf pos =
  let v = String.get_int64_le buf pos in
  if Int64.compare v 0L < 0 then corrupt "register set word with bit 63 set at %d" pos;
  Regset.of_int (Int64.to_int v)

let read_regset r =
  need r 8;
  let s = read_regset_at r.buf r.cur in
  r.cur <- r.cur + 8;
  s

let write_option f w = function
  | None -> write_bool w false
  | Some v ->
      write_bool w true;
      f w v

let read_option f r = if read_bool r then Some (f r) else None

let write_list f w l =
  write_int w (List.length l);
  List.iter (f w) l

let read_len r =
  let n = read_int r in
  (* Every element costs at least one byte, so a length beyond the bytes
     remaining is corrupt — reject before allocating. *)
  if n < 0 || n > r.stop - r.cur then corrupt "bad container length %d at %d" n r.cur;
  n

(* [List.init]/[Array.init] leave the evaluation order of [f]
   unspecified; a stateful reader needs strictly increasing reads. *)
let read_list f r =
  let n = read_len r in
  let rec go k = if k = 0 then [] else let v = f r in v :: go (k - 1) in
  go n

let write_array f w a =
  write_int w (Array.length a);
  Array.iter (f w) a

let read_array f r =
  let n = read_len r in
  if n = 0 then [||]
  else begin
    let a = Array.make n (f r) in
    for i = 1 to n - 1 do
      a.(i) <- f r
    done;
    a
  end

let write_regset_array w a =
  write_int w (Array.length a);
  Array.iter (fun s -> write_regset w s) a

let read_regset_array r =
  let n = read_int r in
  if n < 0 || n > (r.stop - r.cur) / 8 then
    corrupt "bad regset array length %d at %d" n r.cur;
  let buf = r.buf and pos = r.cur in
  let a = Array.make n Regset.empty in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (read_regset_at buf (pos + (i * 8)))
  done;
  r.cur <- pos + (n * 8);
  a

let write_sets3_array w a =
  write_int w (Array.length a);
  Array.iter
    (fun (x, y, z) ->
      write_regset w x;
      write_regset w y;
      write_regset w z)
    a

let read_sets3_array r =
  let n = read_int r in
  if n < 0 || n > (r.stop - r.cur) / 24 then
    corrupt "bad sets3 array length %d at %d" n r.cur;
  let buf = r.buf and pos = r.cur in
  let a =
    Array.init n (fun i ->
        let p = pos + (i * 24) in
        (read_regset_at buf p, read_regset_at buf (p + 8), read_regset_at buf (p + 16)))
  in
  r.cur <- pos + (n * 24);
  a

(* 64-bit FNV-1a, eight bytes per step; byte-at-a-time over the tail. *)
let checksum s ~pos ~len =
  let fnv_prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let mix v = h := Int64.mul (Int64.logxor !h v) fnv_prime in
  let words = len / 8 in
  for k = 0 to words - 1 do
    mix (String.get_int64_le s (pos + (k * 8)))
  done;
  for i = pos + (words * 8) to pos + len - 1 do
    mix (Int64.of_int (Char.code (String.unsafe_get s i)))
  done;
  !h
