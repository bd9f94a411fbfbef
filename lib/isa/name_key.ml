let max_length = 7

(* Bytes are shifted in from the right, the first byte ending up highest,
   and the length goes in bits 56..58: the packing is injective on names of
   at most seven bytes and stays below [max_int].  A scanner may call [add]
   on every byte of a longer name; [seal] discards the overflowed key. *)
let[@inline] add key c = (key lsl 8) lor c
let[@inline] seal key len = if len > max_length then -1 else key lor (len lsl 56)

let of_string s = seal (String.fold_left (fun key c -> add key (Char.code c)) 0 s) (String.length s)

(* Open addressing with linear probing over one int array: slot [i] is
   the pair at [2i] (a key, or -1 when the slot is empty) and [2i + 1]
   (its value).  The table is at most a quarter full. *)
type table = int array

(* A multiplicative mix: the low bits of a key are the name's last byte,
   which alone would crowd the slots.  The result is an even index. *)
let[@inline] home table key = ((key * 0x9E3779B97F4A7C1) lsr 20) land (Array.length table - 2)

let rec probe table key i =
  let k = Array.unsafe_get table i in
  if k = key then Array.unsafe_get table (i + 1)
  else if k < 0 then -1
  else probe table key ((i + 2) land (Array.length table - 2))

let find table key = if key < 0 then -1 else probe table key (home table key)

let table bindings =
  let n = List.length bindings in
  let slots = ref 8 in
  while !slots < 4 * n do
    slots := 2 * !slots
  done;
  let table = Array.make (2 * !slots) (-1) in
  List.iter
    (fun (name, value) ->
      let key = of_string name in
      if key < 0 then invalid_arg ("Name_key.table: name too long: " ^ name);
      if value < 0 then invalid_arg ("Name_key.table: negative value for " ^ name);
      let rec place i =
        let k = table.(i) in
        if k < 0 || k = key then begin
          table.(i) <- key;
          table.(i + 1) <- value
        end
        else place ((i + 2) land (Array.length table - 2))
      in
      place (home table key))
    bindings;
  table
