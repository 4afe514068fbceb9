package repro.core

/** Mutable comparison / work counters threaded through engine operators.
  *
  * The paper's efficiency claims are about *counts*: offset-value codes decide
  * most row comparisons with a single integer comparison (`codeComparisons`),
  * bounding expensive `columnComparisons` by N*K for the whole sort. Hash
  * baselines are charged `hashColumnAccesses` (N*K just for the hash function).
  *
  * An `OvcStats` is single-threaded: work on other threads counts into
  * stats of its own, which the owner then [[add]]s.
  */
final class OvcStats {
  /** Single-integer offset-value-code comparisons (the cheap path). */
  var codeComparisons: Long = 0L

  /** Individual column-value comparisons (the expensive path OVC minimizes). */
  var columnComparisons: Long = 0L

  /** Whole-row comparisons resolved, by code or by columns. */
  var rowComparisons: Long = 0L

  /** Column values touched to compute hash functions (hash baselines only). */
  var hashColumnAccesses: Long = 0L

  /** Key column values read to build packed normalized keys: N·K for each
    * sort that packs its keys ([[repro.sort.PackedChunk]]). The `Long`
    * compares of that sort's `java.util.Arrays.sort` are not counted.
    */
  var packColumnReads: Long = 0L

  def reset(): Unit = {
    codeComparisons = 0; columnComparisons = 0; rowComparisons = 0; hashColumnAccesses = 0
    packColumnReads = 0
  }

  /** Adds `other`'s counts to these. */
  def add(other: OvcStats): Unit = {
    codeComparisons += other.codeComparisons
    columnComparisons += other.columnComparisons
    rowComparisons += other.rowComparisons
    hashColumnAccesses += other.hashColumnAccesses
    packColumnReads += other.packColumnReads
  }

  override def toString: String =
    s"OvcStats(code=$codeComparisons, column=$columnComparisons, row=$rowComparisons, " +
    s"hashCol=$hashColumnAccesses, packCol=$packColumnReads)"
}

/** Ascending offset-value codes over fixed-arity `Long` keys, packed into a
  * single non-negative `Long`.
  *
  * `code = (arity - offset) << 48 | value` where `offset` is the length of the
  * maximal shared prefix with the base key and `value` is the key's column at
  * that offset (paper §3, Table 1). Among keys coded relative to the *same*
  * base, a smaller packed code sorts earlier; equality means the keys agree
  * through `offset` and further columns must be compared. `offset == arity`
  * (packed code 0) encodes "equal to base", i.e. a duplicate.
  *
  * Values must fit in 48 unsigned bits. The paper's production systems pack
  * byte offsets and normalized-key bytes instead; the arithmetic is identical.
  */
object Ovc {
  val ValueBits: Int = 48
  val ValueMask: Long = (1L << ValueBits) - 1

  /** Code of an exhausted input — a "late fence" that loses every comparison.
    * Folding fences into the code domain makes fence tests free (paper §3, §5).
    */
  val LateFence: Long = Long.MaxValue

  /** Pack a code. `offset == arity` yields 0 regardless of `value`. */
  def pack(arity: Int, offset: Int, value: Long): Long =
    if (offset >= arity) 0L else ((arity - offset).toLong << ValueBits) | value

  /** Rejects a key whose first `arity` columns do not all fit the value
    * field, naming the first column that does not.
    */
  def requireKey(key: Array[Long], arity: Int): Unit = {
    var i = 0
    while (i < arity) { requireValue(i, key(i)); i += 1 }
  }

  /** Rejects `value`, in key column `column`, unless it fits the value field
    * [0, 2^48).
    */
  def requireValue(column: Int, value: Long): Unit =
    if ((value >>> ValueBits) != 0L)
      throw new IllegalArgumentException(s"key column $column = $value is outside [0, 2^$ValueBits)")

  def offsetOf(code: Long, arity: Int): Int = arity - (code >>> ValueBits).toInt

  def valueOf(code: Long): Long = code & ValueMask

  /** True iff the coded row equals its base (offset == arity). */
  def isDup(code: Long): Boolean = (code >>> ValueBits) == 0L

  /** True iff the coded row differs from its base within the first
    * `prefixLen` columns (offset < prefixLen): a segment or group boundary on
    * that prefix (§4.3, §4.5). One integer test, no column access.
    */
  def isBoundary(code: Long, arity: Int, prefixLen: Int): Boolean =
    (code >>> ValueBits) > (arity - prefixLen).toLong

  /** The same code re-packed for a key of `toArity` columns (§4.2): the
    * offset is kept, and becomes the duplicate code 0 if it is not below
    * `toArity`. Capping a key to a prefix, or extending it past a shared
    * prefix, changes nothing else.
    */
  def recode(code: Long, fromArity: Int, toArity: Int): Long =
    pack(toArity, offsetOf(code, fromArity), valueOf(code))

  /** Code of `key` with first difference at column `off` (§4.10): the value
    * is `key(off)`, and `off == key.length` is the duplicate code 0. An
    * ordered scan that knows the offset builds the code with no comparison.
    */
  def codeAt(key: Array[Long], off: Int): Long =
    if (off == key.length) 0L else pack(key.length, off, key(off))

  /** Code of the first row of a stream, i.e. relative to an implicit "-inf"
    * base sharing no prefix: offset 0, value = first column.
    */
  def initial(key: Array[Long]): Long = codeAt(key, 0)

  /** Code of `cur` relative to `prev`, where `prev` sorts at or before `cur`;
    * a null `prev` is the "-inf" base of a stream's first row ([[initial]]).
    * Counts one column comparison per column inspected.
    */
  def encode(prev: Array[Long], cur: Array[Long], stats: OvcStats): Long = {
    if (prev == null) return initial(cur)
    val arity = cur.length
    var i = 0
    while (i < arity) {
      stats.columnComparisons += 1
      if (prev(i) != cur(i)) return codeAt(cur, i)
      i += 1
    }
    0L // duplicate of prev
  }

  /** Full-key three-way comparison (baseline path; counts column compares). */
  def compareKeys(a: Array[Long], b: Array[Long], stats: OvcStats): Int = {
    val arity = a.length
    var i = 0
    while (i < arity) {
      stats.columnComparisons += 1
      if (a(i) != b(i)) return if (a(i) < b(i)) -1 else 1
      i += 1
    }
    0
  }
}

/** The paper's comparison rule for two keys coded relative to the same base
  * (§3): unequal codes decide the comparison outright (and by Iyer's lemma the
  * loser keeps its code); equal codes require column comparisons starting just
  * past the shared offset, and the loser is re-coded relative to the winner.
  *
  * After `compare`, `loserCode` holds the losing key's code relative to the
  * winning key (for ties: the duplicate code 0).
  */
final class OvcComparator(val arity: Int, val stats: OvcStats) {
  var loserCode: Long = 0L

  /** Three-way compare; negative means `a` sorts earlier. */
  def compare(aKey: Array[Long], aCode: Long, bKey: Array[Long], bCode: Long): Int = {
    stats.codeComparisons += 1
    stats.rowComparisons += 1
    if (aCode < bCode) { loserCode = bCode; -1 }       // Iyer: b keeps its code
    else if (aCode > bCode) { loserCode = aCode; 1 }
    else compareColumns(aKey, bKey, aCode)
  }

  /** The equal-code case of [[compare]], for callers that have already
    * counted the code comparison: both keys carry `code`, so they agree with
    * the base, and with each other, through the shared offset. Compares
    * columns from offset+1 on.
    */
  def compareColumns(aKey: Array[Long], bKey: Array[Long], code: Long): Int = {
    var i = arity - (code >>> Ovc.ValueBits).toInt + 1
    while (i < arity) {
      stats.columnComparisons += 1
      if (aKey(i) != bKey(i)) {
        if (aKey(i) < bKey(i)) { loserCode = Ovc.pack(arity, i, bKey(i)); return -1 }
        else { loserCode = Ovc.pack(arity, i, aKey(i)); return 1 }
      }
      i += 1
    }
    loserCode = 0L // equal keys: loser is a duplicate of the winner
    0
  }
}
