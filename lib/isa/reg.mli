(** Machine registers of the Alpha-flavoured target.

    Registers are small integers: [0 .. 31] are the integer registers
    (Alpha [$0 .. $31]), [32 .. 63] are the floating-point registers
    ([$f0 .. $f31]).  The analysis treats a register purely as a bit
    position in a {!Spike_support.Regset.t}; the software names and the
    calling-standard roles live here and in {!Calling_standard}. *)

type t = int

val count : int
(** Total number of registers (64). *)

(* Integer registers by software name. *)

val v0 : t
(** [$0], integer return value. *)

val t0 : t
val t1 : t
val t2 : t
val t3 : t
val t4 : t
val t5 : t
val t6 : t
val t7 : t
(** [$1 .. $8], caller-saved temporaries. *)

val s0 : t
val s1 : t
val s2 : t
val s3 : t
val s4 : t
val s5 : t
(** [$9 .. $14], callee-saved. *)

val fp : t
(** [$15], frame pointer / [s6], callee-saved. *)

val a0 : t
val a1 : t
val a2 : t
val a3 : t
val a4 : t
val a5 : t
(** [$16 .. $21], integer argument registers. *)

val t8 : t
val t9 : t
val t10 : t
val t11 : t
(** [$22 .. $25], caller-saved temporaries. *)

val ra : t
(** [$26], return address. *)

val pv : t
(** [$27], procedure value ([t12]); holds the callee address at indirect
    calls. *)

val at : t
(** [$28], assembler temporary. *)

val gp : t
(** [$29], global pointer. *)

val sp : t
(** [$30], stack pointer. *)

val zero : t
(** [$31], hardwired zero; writes are discarded, reads yield 0. *)

val f0 : t
(** [$f0], floating-point return value. *)

val fzero : t
(** [$f31], floating-point hardwired zero. *)

val freg : int -> t
(** [freg n] is floating-point register [$f<n>].
    @raise Invalid_argument unless [0 <= n <= 31]. *)

val is_integer : t -> bool
val is_float : t -> bool

val is_zero : t -> bool
(** The two hardwired zero registers; never carry dataflow. *)

val name : t -> string
(** Software name, e.g. ["v0"], ["s3"], ["f17"]. *)

val of_name : string -> t option
(** Inverse of {!name}; also accepts raw ["r<n>"] / ["$<n>"] spellings. *)

val of_key : int -> t
(** [of_key (Name_key.of_string s)] is the register [of_name s] names, or
    [-1] when no register has that spelling; it lets a parser resolve a
    register from a span of its source with one flat-table probe. *)

val pp : Format.formatter -> t -> unit

val all : t list
(** All 64 registers in numeric order. *)
