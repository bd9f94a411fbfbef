(** Dense bitsets over the 63 registers that can carry dataflow.

    A value of type {!t} represents a set of register numbers in the range
    [0 .. 62] as one immediate OCaml int: bit [r] is register [r].  Every
    set operation is a single machine instruction or two, nothing
    allocates, and a record field or array slot holding a set is written
    without the write barrier.  These sets are the currency of the whole
    analysis: DEF/UBD per basic block, the MUST-DEF / MAY-DEF / MAY-USE
    labels on PSG edges, and the per-routine summary sets.

    Register 63 ([f31]) is outside the universe: like [zero] ([$31]) it is
    hardwired to zero, and [Insn.defs]/[Insn.uses] keep both out
    of every DEF/USE set, so the 63 bits of an OCaml int are exactly
    enough.  Adding register 63 raises; [mem 63] is [false] and
    [remove 63] is the identity, since no set can hold it. *)

type t [@@immediate]

val bits : int
(** Number of representable registers (63). *)

val empty : t
val full : t

val singleton : int -> t
(** [singleton r] is the set containing only register [r].
    @raise Invalid_argument if [r] is outside [0 .. bits - 1]. *)

val add : int -> t -> t
(** @raise Invalid_argument if [r] is outside [0 .. bits - 1]. *)

val remove : int -> t -> t
(** [remove 63 s] is [s].
    @raise Invalid_argument if [r] is outside [0 .. bits]. *)

val mem : int -> t -> bool
(** [mem 63 s] is [false]: register 63 is in no set.
    @raise Invalid_argument if [r] is outside [0 .. bits]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order on the bit words read as unsigned: register 62 is the most
    significant bit, register 0 the least. *)

val subset : t -> t -> bool
(** [subset a b] is [true] iff every member of [a] is a member of [b]. *)

val disjoint : t -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** [iter f s] applies [f] to each member of [s] in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f s init] folds [f] over the members of [s] in increasing order. *)

val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
val choose : t -> int option
(** [choose s] is the smallest member of [s], if any. *)

val of_list : int list -> t
val to_list : t -> int list

val hash : t -> int

val to_int : t -> int
(** The bit word: bit [r] is set iff register [r] is a member.  For the
    store's codec and the fingerprint. *)

val of_int : int -> t
(** Inverse of {!to_int}; every int is a valid set. *)

val pp : ?name:(int -> string) -> Format.formatter -> t -> unit
(** Prints as [{r1, r5}]; [name] overrides the default ["r<n>"] rendering. *)

val to_string : ?name:(int -> string) -> t -> string
