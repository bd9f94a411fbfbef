(** Bounds-checked binary encoding for the persistent summary store.

    The writer appends to a {!Buffer.t}; the reader walks a [string] with
    an explicit cursor and raises {!Corrupt} — never an out-of-bounds
    exception — on any malformed input: truncated data, negative or
    absurd lengths, unknown constructor tags.  {!Store} catches [Corrupt]
    wholesale and degrades to a cold run, so decoding code can be written
    straight-line.

    Integers use zigzag LEB128 (small magnitudes, either sign, are one
    byte); a register set is one raw little-endian 64-bit word whose bit
    63 must be clear; strings and containers are length-prefixed. *)

type writer = Buffer.t

type reader

exception Corrupt of string

val reader : ?pos:int -> ?len:int -> string -> reader

val pos : reader -> int

val at_end : reader -> bool

val remaining : reader -> int
(** Bytes left before the reader's end. *)

val skip : reader -> int -> unit
(** [skip r n] moves past [n] bytes; raises {!Corrupt} past the end. *)

(** {2 Primitives} *)

val write_int : writer -> int -> unit
val read_int : reader -> int

val write_bool : writer -> bool -> unit
val read_bool : reader -> bool

val write_string : writer -> string -> unit
val read_string : reader -> string

val write_raw : writer -> string -> unit
(** No length prefix; for fixed-width fields like digests. *)

val read_raw : reader -> int -> string

val write_regset : writer -> Spike_support.Regset.t -> unit

val read_regset : reader -> Spike_support.Regset.t
(** Raises {!Corrupt} on a word with bit 63 set: register 63 is outside
    {!Spike_support.Regset}'s universe, so such a word was never written
    by {!write_regset}. *)

(** {2 Containers} *)

val write_option : (writer -> 'a -> unit) -> writer -> 'a option -> unit
val read_option : (reader -> 'a) -> reader -> 'a option

val write_list : (writer -> 'a -> unit) -> writer -> 'a list -> unit
val read_list : (reader -> 'a) -> reader -> 'a list

val write_array : (writer -> 'a -> unit) -> writer -> 'a array -> unit

val read_array : (reader -> 'a) -> reader -> 'a array
(** Length-checked: refuses lengths that exceed the bytes remaining, so a
    corrupt length cannot trigger a huge allocation. *)

(** {2 Bulk register-set arrays}

    Register sets are the store's dominant payload (hundreds of thousands
    per program), so arrays of them get fixed-width raw encodings decoded
    by a tight loop with one bounds check — several times faster than
    going through [read_array read_regset]. *)

val write_regset_array : writer -> Spike_support.Regset.t array -> unit
(** Length-prefixed, then one word per set.  The encoding of edge labels
    and of the warm plan's converged solutions. *)

val read_regset_array : reader -> Spike_support.Regset.t array

(** {2 Runs}

    A run is a known number of values with no length prefix of its own:
    the store writes an entry's lanes as runs whose lengths follow from
    counts read earlier. *)

val read_ints : reader -> int -> int array
(** [read_ints r n] reads [n] ints; refuses an [n] beyond the bytes
    remaining before allocating. *)

val write_regsets : writer -> Spike_support.Regset.t array -> pos:int -> len:int -> unit
(** The sets [a.(pos)] to [a.(pos + len - 1)], one word each. *)

val read_regsets : reader -> int -> Spike_support.Regset.t array
(** [read_regsets r n] reads [n] sets written by {!write_regsets}. *)

val checksum : string -> pos:int -> len:int -> int64
(** Fast 64-bit content hash (word-wide FNV-1a variant).  Not
    cryptographic — it guards against truncation and bit rot, while
    content identity is established by the MD5 fingerprints inside. *)
