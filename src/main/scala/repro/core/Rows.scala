package repro.core

/** An engine row: a fixed-arity sort key plus an opaque payload.
  *
  * Row contract: no code mutates a key or payload array after the row that
  * holds it is emitted. Operators may therefore share these arrays between
  * rows, and may emit one row object more than once.
  */
final case class ERow(key: Array[Long], payload: Array[Long]) {
  override def toString: String =
    s"ERow(${key.mkString("[", ",", "]")}, ${payload.mkString("[", ",", "]")})"
}

object ERow {
  val NoPayload: Array[Long] = Array.emptyLongArray
  def apply(key: Array[Long]): ERow = ERow(key, NoPayload)
}

/** A row in a sorted, offset-value-coded stream: `code` is the packed
  * ascending OVC of `key` relative to the stream's previous row (or the
  * implicit "-inf" base for the first row).
  *
  * The [[ERow]] contract holds: key and payload arrays are never mutated
  * after emission. An operator may pass an input row through as its output
  * and may emit one object again for a duplicate (code 0), so consumers must
  * not tell rows apart by identity.
  */
final case class CodedRow(key: Array[Long], code: Long, payload: Array[Long]) {
  override def toString: String =
    s"CodedRow(${key.mkString("[", ",", "]")}, code=$code, ${payload.mkString("[", ",", "]")})"
}

/** A sorted, coded stream read in place. Once [[move]] has returned true,
  * [[key]], [[code]] and [[payload]] are the current row's, valid until the
  * cursor moves again: the cursor may reuse the arrays for a later row. A
  * consumer that keeps the row takes [[row]], which returns it as a lasting
  * [[CodedRow]] under the row contract.
  */
trait CodedCursor {
  /** Moves to the next row; false once the stream has ended. */
  def move(): Boolean
  def key: Array[Long]
  def code: Long
  def payload: Array[Long]

  /** The current row as a lasting row with code `code`: its own, or the
    * code a fold over dropped rows gives it (§4.1).
    */
  def row(code: Long): CodedRow

  final def row(): CodedRow = row(code)
}

object CodedCursor {

  /** The pass-through adapter: a cursor over `rows` whose current row is
    * the input row itself, which [[row]] returns unless given another code.
    * Each move is one `hasNext` and, if true, one `next()` on `rows`.
    */
  final class Rows(rows: Iterator[CodedRow]) extends CodedCursor {
    private[this] var r: CodedRow = null

    def move(): Boolean = { r = if (rows.hasNext) rows.next() else null; r != null }
    def key: Array[Long] = r.key
    def code: Long = r.code
    def payload: Array[Long] = r.payload
    def row(code: Long): CodedRow = if (code == r.code) r else CodedRow(r.key, code, r.payload)
  }
}

/** An ordered operator's output, with both faces: its own [[CodedCursor]],
  * read in place, and an `Iterator[CodedRow]` over it, whose `hasNext`
  * looks ahead by one [[move]] and whose `next()` is [[move]] then [[row]].
  * So a row becomes an object only where a consumer keeps it. A stream is
  * read either as an iterator or through its cursor; a consumer that takes
  * the cursor of a stream looked ahead on as an iterator reads the iterator
  * ([[lookedAhead]], `SpillOutput.cursor`).
  */
abstract class CodedIterator extends Iterator[CodedRow] with CodedCursor {
  // Whether `hasNext` has moved for a `next()` still to come, and the
  // result of that move.
  private[this] var ahead = false
  private[this] var live = false

  /** True while a `hasNext` has moved and no `next()` has taken the row. */
  final def lookedAhead: Boolean = ahead

  final override def hasNext: Boolean = {
    if (!ahead) { live = move(); ahead = true }
    live
  }

  final override def next(): CodedRow = {
    if (!hasNext) throw new NoSuchElementException("coded stream exhausted")
    ahead = false
    row()
  }
}

/** Invariant checks shared by tests and debug assertions. */
object OvcInvariants {

  /** Verify a coded stream: ascending key order and a consistent OVC chain
    * (each code equals the re-derived code relative to the predecessor; the
    * first code is the code relative to "-inf"). Throws on violation.
    */
  def verifyChain(rows: Iterable[CodedRow], arity: Int): Unit = {
    val junk = new OvcStats
    var prev: Array[Long] = null
    var i = 0
    rows.foreach { r =>
      require(r.key.length == arity, s"row $i: key arity ${r.key.length} != $arity")
      val expect = Ovc.encode(prev, r.key, junk)
      require(r.code == expect,
        s"row $i: code ${r.code} != expected $expect " +
        s"(offset=${Ovc.offsetOf(r.code, arity)} vs ${Ovc.offsetOf(expect, arity)}) for $r")
      if (prev != null)
        require(Ovc.compareKeys(prev, r.key, junk) <= 0, s"row $i out of order: $r")
      prev = r.key
      i += 1
    }
  }
}

/** Deterministic generators for engine tests and benchmarks. */
object DataGen {

  /** Random rows: `arity` key columns, each uniform in [0, distinctPerCol). */
  def randomRows(n: Int, arity: Int, distinctPerCol: Int, seed: Long,
                 payloadArity: Int = 0): Array[ERow] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n) {
      val key = Array.fill(arity)(rnd.nextInt(distinctPerCol).toLong)
      val pay = if (payloadArity == 0) ERow.NoPayload else Array.fill(payloadArity)(rnd.nextLong() & 0xffff)
      ERow(key, pay)
    }
  }

  /** Composite key for integer id: mixed-radix digits, most significant first.
    * Order-preserving: id1 < id2 iff key(id1) < key(id2) lexicographically.
    */
  def compositeKey(id: Long, arity: Int, base: Long): Array[Long] = {
    val key = new Array[Long](arity)
    var v = id
    var i = arity - 1
    while (i >= 0) { key(i) = v % base; v /= base; i -= 1 }
    key
  }

  /** Figure 1 input: `n` rows sorted ascending, exactly `n/ratio` groups of
    * size `ratio`, keys with `arity` small-domain int64 columns (the paper's
    * "many key columns, few distinct values"). Codes come from a prefix scan,
    * i.e. an ordered scan originating OVCs (§4.10).
    */
  def groupedSortedCoded(n: Int, ratio: Int, arity: Int): Array[CodedRow] = {
    val groups = math.max(1, n / ratio)
    val base = math.max(2L, math.ceil(math.pow(groups.toDouble, 1.0 / arity)).toLong)
    val out = new Array[CodedRow](n)
    val junk = new OvcStats
    var prev: Array[Long] = null
    var i = 0
    var g = 0L
    while (i < n) {
      val key = compositeKey(g, arity, base)
      var j = 0
      while (j < ratio && i < n) {
        out(i) = CodedRow(key, Ovc.encode(prev, key, junk), ERow.NoPayload)
        prev = key
        i += 1; j += 1
      }
      g += 1
    }
    out
  }

  /** Attach reference codes to already-sorted keys (ordered-scan style). */
  def codeSorted(keys: IndexedSeq[Array[Long]],
                 payloads: IndexedSeq[Array[Long]] = null): Vector[CodedRow] = {
    val junk = new OvcStats
    var prev: Array[Long] = null
    val b = Vector.newBuilder[CodedRow]
    var i = 0
    while (i < keys.length) {
      val k = keys(i)
      b += CodedRow(k, Ovc.encode(prev, k, junk), if (payloads == null) ERow.NoPayload else payloads(i))
      prev = k
      i += 1
    }
    b.result()
  }

  /** Reference sort (stable timsort on full key) + reference coding. */
  def refSortCoded(rows: Iterable[ERow]): Vector[CodedRow] = {
    val junk = new OvcStats
    val arr = rows.toArray
    val sorted = arr.sortWith((a, b) => Ovc.compareKeys(a.key, b.key, junk) < 0)
    codeSorted(sorted.map(_.key).toIndexedSeq, sorted.map(_.payload).toIndexedSeq)
  }
}
