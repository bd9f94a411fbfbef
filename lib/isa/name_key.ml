let max_length = 7

(* The length goes in bits 56..58 and byte [i] in bits [8i .. 8i+7], so the
   packing is injective on names of at most seven bytes and stays below
   [max_int]. *)
let of_span s pos len =
  if len > max_length then -1
  else begin
    let key = ref (len lsl 56) in
    for i = 0 to len - 1 do
      key := !key lor (Char.code s.[pos + i] lsl (8 * i))
    done;
    !key
  end

let of_string s = of_span s 0 (String.length s)

module Table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* A multiplicative mix: the low bits of a key are the name's first byte,
     which alone would crowd the buckets. *)
  let hash k = (k * 0x9E3779B97F4A7C1) lsr 20
end)
