package repro.ops

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.core._
import repro.sort.{ExternalSort, SpillOutput, SpillStats}

/** Every ordered operator has two faces: an iterator, and its own cursor
  * (`CodedIterator`), read in place with a row object only for a row taken
  * with `row()`. Each input comes twice: as a cursor (an RLE scan, a
  * spilling sort's output) and as a plain iterator over the same rows.
  * Over either input, read either way, whole or stopped part way, an
  * operator emits the same rows, codes and payloads as a valid OVC chain;
  * over one input both faces count the same comparisons; and a row taken
  * keeps its contents after the cursor has moved on.
  */
class CursorFacesSpec extends AnyFunSuite {

  private type Snap = (Vector[Long], Long, Vector[Long])
  private def snap(r: CodedRow): Snap = (r.key.toVector, r.code, r.payload.toVector)
  private def counts(s: OvcStats) =
    (s.codeComparisons, s.columnComparisons, s.rowComparisons, s.hashColumnAccesses)

  private val rows = DataGen.randomRows(2000, 3, 4, seed = 7, payloadArity = 1)
  private val table = RleTable.fromSortedKeys(Ref.sortCoded(rows).map(_.key))
  private def sorted(stats: OvcStats): SpillOutput[CodedRow] =
    ExternalSort.sort(rows.iterator, 3, 1, memRows = 300, stats, new SpillStats)

  /** A cursor input, made afresh counting into the given stats, and its rows
    * read once, for the plain-iterator input over the same rows.
    */
  private final class Input(val name: String, val hasPayload: Boolean, val cursor: OvcStats => Iterator[CodedRow]) {
    lazy val plain: Vector[CodedRow] = cursor(new OvcStats).toVector
  }

  private val inputs = Seq(
    new Input("an RLE scan", hasPayload = false, s => table.scan(s)),
    new Input("a spilling sort", hasPayload = true, s => sorted(s)))

  /** An operator over an input of arity 3 with a payload of 1 column, if any. */
  private final class Op(val name: String, val outArity: Int, val needsPayload: Boolean,
                         val run: (Iterator[CodedRow], OvcStats) => Iterator[CodedRow])

  private val right = Ref.sortCoded(
    DataGen.randomRows(60, 3, 4, seed = 8, payloadArity = 1).filter(_.key(1) != 2L))
  private val byPrefix = right.groupBy(_.key.take(2).toVector)
  private def lookup(k: Array[Long]): IndexedSeq[(Array[Long], Array[Long])] =
    byPrefix.getOrElse(k.toVector, Vector.empty).map(r => (r.key.drop(2), r.payload))

  private val ops = Seq(
    new Op("the input itself", 3, needsPayload = false, (in, _) => in),
    new Op("FilterOp", 3, needsPayload = false, (in, _) => FilterOp(in, r => (r.key(0) + 2 * r.key(2)) % 3 != 0)),
    new Op("ProjectOp", 2, needsPayload = false, (in, _) => ProjectOp(in, 3, 2)),
    new Op("DedupOp", 3, needsPayload = false, (in, _) => DedupOp(in)),
    new Op("GroupAggOp.countByOvc", 2, needsPayload = false, (in, s) => GroupAggOp.countByOvc(in, 3, 2, s)),
    new Op("GroupAggOp.countByFullCompare", 2, needsPayload = false,
           (in, s) => GroupAggOp.countByFullCompare(in, 3, 2, s)),
    new Op("SegmentedSortOp", 2, needsPayload = true, (in, s) => SegmentedSortOp(in, 3, 1, 1, s)),
  ) ++ Seq(JoinType.Inner, JoinType.LeftSemi, JoinType.LeftAnti, JoinType.LeftOuter).flatMap { jt =>
    Seq(
      new Op(s"MergeJoinOp $jt", 3, needsPayload = false,
             (in, s) => MergeJoinOp(in, 3, right.iterator, 3, 2, jt, s, rightPayloadArity = 1)),
      new Op(s"LookupJoinOp $jt", 3, needsPayload = false,
             (in, s) => LookupJoinOp(in, 3, 2, lookup, jt, s, nullSentinelArity = 2)))
  }

  /** Up to `limit` rows read as an iterator, each with its contents when taken. */
  private def asIterator(out: Iterator[CodedRow], limit: Int): Vector[(CodedRow, Snap)] = {
    val b = Vector.newBuilder[(CodedRow, Snap)]
    var n = 0
    while (n < limit && out.hasNext) { val r = out.next(); b += ((r, snap(r))); n += 1 }
    b.result()
  }

  /** Up to `limit` rows read through the cursor, each taken with `row()`,
    * which must hold what the cursor read in place.
    */
  private def asCursor(out: Iterator[CodedRow], limit: Int): Vector[(CodedRow, Snap)] = {
    val c = SpillOutput.cursor(out)
    val b = Vector.newBuilder[(CodedRow, Snap)]
    var n = 0
    while (n < limit && c.move()) {
      val inPlace = (c.key.toVector, c.code, c.payload.toVector)
      val r = c.row()
      assert(snap(r) == inPlace, s"row $n taken differs from the cursor's")
      b += ((r, inPlace))
      n += 1
    }
    b.result()
  }

  for (in <- inputs; op <- ops if in.hasPayload || !op.needsPayload) {
    test(s"${op.name} over ${in.name} reads the same as an iterator and as a cursor") {
      val reference = asIterator(op.run(in.plain.iterator, new OvcStats), Int.MaxValue).map(_._2)
      assert(reference.nonEmpty)
      OvcInvariants.verifyChain(
        asIterator(op.run(in.plain.iterator, new OvcStats), Int.MaxValue).map(_._1), op.outArity)
      for (limit <- Seq(Int.MaxValue, reference.size / 3); plain <- Seq(true, false)) {
        val what = s"${if (plain) "plain" else "cursor"} input, limit $limit"
        def read(face: (Iterator[CodedRow], Int) => Vector[(CodedRow, Snap)]) = {
          val stats = new OvcStats
          val source = if (plain) in.plain.iterator else in.cursor(stats)
          try (face(op.run(source, stats), limit), counts(stats))
          finally source match { case c: java.io.Closeable => c.close(); case _ => }
        }
        val (viaIterator, iteratorCounts) = read(asIterator)
        val (viaCursor, cursorCounts) = read(asCursor)
        assert(viaIterator.map(_._2) == reference.take(limit), what)
        assert(viaCursor.map(_._2) == reference.take(limit), what)
        assert(iteratorCounts == cursorCounts, what)
        (viaIterator ++ viaCursor).foreach { case (r, s) => assert(snap(r) == s, s"$what: a taken row changed") }
        OvcInvariants.verifyChain(viaCursor.map(_._1), op.outArity)
      }
    }
  }

  for (in <- inputs) {
    test(s"Shuffle.split over ${in.name} equals the split of a plain iterator over its rows") {
      val partOf = (r: CodedRow) => ((r.key(0) * 5 + r.key(2) * 3) % 4).toInt
      val parts = Shuffle.split(in.cursor(new OvcStats), 4, partOf)
      assert(parts.map(_.map(snap)) == Shuffle.split(in.plain.iterator, 4, partOf).map(_.map(snap)))
      parts.foreach(p => OvcInvariants.verifyChain(p, 3))
    }
  }

  test("an operator looked ahead on as an iterator is read through its iterator by a later cursor") {
    val in = inputs.head.plain
    val filtered = FilterOp(in.iterator, _.key(2) != 0)
    assert(filtered.hasNext)
    val c = SpillOutput.cursor(filtered)
    val got = Iterator.continually(c).takeWhile(_.move()).map(x => snap(x.row())).toVector
    assert(got == FilterOp(in.iterator, _.key(2) != 0).map(snap).toVector)
  }
}
