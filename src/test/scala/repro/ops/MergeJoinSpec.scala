package repro.ops

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.core._
import repro.sort.{ExternalSort, SpillStats}

/** Merge join with OVCs on both inputs (paper §4.7). */
class MergeJoinSpec extends AnyFunSuite {

  private val joinTypes =
    Seq(JoinType.Inner, JoinType.LeftSemi, JoinType.LeftAnti, JoinType.LeftOuter)

  private def check(left: Array[ERow], right: Array[ERow],
                    leftArity: Int, rightArity: Int, joinLen: Int,
                    jt: JoinType, rightPayloadArity: Int = 0): OvcStats = {
    val stats = new OvcStats
    val out = MergeJoinOp(Ref.sortCoded(left).iterator, leftArity,
                          Ref.sortCoded(right).iterator, rightArity,
                          joinLen, jt, stats, rightPayloadArity).toVector
    val expected = Ref.joinRef(left.toIndexedSeq, right.toIndexedSeq, joinLen, jt,
                               rightArity, rightPayloadArity)
    assert(out.map(r => (r.key.toVector, r.payload.toVector)) == expected,
           s"join content mismatch for $jt")
    OvcInvariants.verifyChain(out, leftArity)
    stats
  }

  for (seed <- 0 until 3; jt <- joinTypes; joinLen <- Seq(1, 2)) {
    test(s"$jt joinLen=$joinLen seed=$seed matches reference with a valid code chain") {
      val left = DataGen.randomRows(600, 2, 4, seed, payloadArity = 1)
      val right = DataGen.randomRows(500, 2, 4, seed + 50, payloadArity = 1)
      check(left, right, 2, 2, joinLen, jt, rightPayloadArity = 1)
    }
  }

  for (jt <- joinTypes) {
    test(s"$jt with different arities on the two sides") {
      val left = DataGen.randomRows(400, 3, 3, seed = 7, payloadArity = 1)
      val right = DataGen.randomRows(300, 2, 3, seed = 8, payloadArity = 2)
      check(left, right, 3, 2, joinLen = 2, jt, rightPayloadArity = 2)
    }
  }

  for (jt <- joinTypes) {
    test(s"$jt with an empty right input") {
      val left = DataGen.randomRows(200, 2, 4, seed = 9)
      check(left, Array.empty[ERow], 2, 2, 1, jt)
    }
    test(s"$jt with an empty left input") {
      val right = DataGen.randomRows(200, 2, 4, seed = 10)
      check(Array.empty[ERow], right, 2, 2, 1, jt)
    }
  }

  test("many-to-many duplicate keys produce the full cross product per group") {
    val left = Array.fill(6)(ERow(Array(1L, 1L), Array(1L))) ++
               Array.fill(4)(ERow(Array(2L, 2L), Array(2L)))
    val right = Array.fill(5)(ERow(Array(1L, 9L), Array(7L))) ++
                Array.fill(3)(ERow(Array(2L, 8L), Array(6L)))
    val stats = check(left, right, 2, 2, 1, JoinType.Inner, rightPayloadArity = 1)
    // 6*5 + 4*3 = 42 output rows were checked against the reference above.
    assert(stats.columnComparisons <= (left.length + right.length) * 2L)
  }

  test("distinct inputs joined on the full key: intersection semantics") {
    val rnd = new scala.util.Random(12)
    val l = (0 until 300).map(_ => rnd.nextInt(200)).distinct.map(i => ERow(Array(i.toLong, i.toLong))).toArray
    val r = (0 until 300).map(_ => rnd.nextInt(200)).distinct.map(i => ERow(Array(i.toLong, i.toLong))).toArray
    val stats = new OvcStats
    val out = MergeJoinOp(Ref.sortCoded(l).iterator, 2, Ref.sortCoded(r).iterator, 2,
                          2, JoinType.LeftSemi, stats).toVector
    val expected = l.map(_.key.toVector).toSet.intersect(r.map(_.key.toVector).toSet)
    assert(out.map(_.key.toVector).toSet == expected)
    assert(out.size == expected.size)
    OvcInvariants.verifyChain(out, 2)
  }

  test("join match logic is bounded by N*K column comparisons") {
    val n = 5000
    val left = DataGen.randomRows(n, 4, 3, seed = 20)
    val right = DataGen.randomRows(n, 4, 3, seed = 21)
    val stats = new OvcStats
    MergeJoinOp(Ref.sortCoded(left).iterator, 4, Ref.sortCoded(right).iterator, 4,
                4, JoinType.LeftSemi, stats).foreach(_ => ())
    // The capped-code loser-tree invariant keeps the merge logic linear in
    // N*K, exactly like a binary merge step of an external sort.
    assert(stats.columnComparisons <= 2L * n * 4,
           s"columnComparisons=${stats.columnComparisons}")
  }

  test("anti join of identical inputs is empty; semi join is the distinct set") {
    val rows = DataGen.randomRows(500, 2, 5, seed = 30)
    val in1 = Ref.sortCoded(rows)
    val in2 = Ref.sortCoded(rows)
    val stats = new OvcStats
    assert(MergeJoinOp(in1.iterator, 2, in2.iterator, 2, 2, JoinType.LeftAnti, stats).isEmpty)
  }

  for ((jt, rightRows) <- Seq(JoinType.LeftSemi -> 1, JoinType.Inner -> 3)) {
    test(s"$jt streams a 1 M-row left match group, pulling at most 2 left rows ahead of its output") {
      // Left (7, i): one match group on column 0, coded row by row.
      val n = 1000000
      var pulled = 0L
      val left = Iterator.tabulate(n) { i =>
        pulled += 1
        val key = Array(7L, i.toLong)
        CodedRow(key, Ovc.codeAt(key, if (i == 0) 0 else 1), ERow.NoPayload)
      }
      val right = Ref.sortCoded(Array.tabulate(rightRows)(j => ERow(Array(7L, j.toLong))))
      val out = MergeJoinOp(left, 2, right.iterator, 2, 1, jt, new OvcStats)
      out.next()
      assert(pulled <= 2, s"$pulled left rows pulled for the first output row")
      // Left rows pulled beyond those whose outputs were handed out.
      var emitted = 1L
      var ahead = 0L
      while (out.hasNext) {
        out.next()
        emitted += 1
        ahead = math.max(ahead, pulled - emitted / rightRows)
      }
      assert(emitted == n.toLong * rightRows)
      assert(ahead <= 2, s"$ahead left rows pulled ahead of the output")
    }
  }

  // ---- Cursors into sorted outputs ----

  /** `n` rows of arity 2: column 0 in [0, hi), column 1 in [0, 3). */
  private def rows(n: Int, hi: Int, seed: Long, payloadArity: Int): Array[ERow] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n) {
      val key = Array(rnd.nextInt(hi).toLong, rnd.nextInt(3).toLong)
      ERow(key, Array.fill(payloadArity)(rnd.nextInt(1000).toLong))
    }
  }

  /** A plain iterator over `in`, pulling a row only when asked. */
  private def plain(in: Iterator[CodedRow]): Iterator[CodedRow] = new Iterator[CodedRow] {
    def hasNext: Boolean = in.hasNext
    def next(): CodedRow = in.next()
  }

  private def contents(r: CodedRow) = (r.key.toVector, r.code, r.payload.toVector)

  // (shape, memRows, fanIn): sorts of 300 rows in memory, with one merge
  // level over 3 runs, and with fan-in 2 over 6 runs.
  private val sortShapes = Seq(("in memory", 1000, 512), ("one merge level", 100, 512), ("fanIn = 2", 50, 2))

  for (jt <- joinTypes; dedup <- Seq(false, true); payloadArity <- Seq(0, 1)) {
    test(s"$jt over sort outputs read by cursor equals the join over plain iterators " +
         s"(dedup=$dedup, payload arity $payloadArity)") {
      for ((shape, memRows, fanIn) <- sortShapes; leftEndsFirst <- Seq(true, false); joinLen <- Seq(1, 2)) {
        val clue = s"$shape, ${if (leftEndsFirst) "left" else "right"} ends first, joinLen=$joinLen"
        // Column 0 of the side that ends first stays below 8 and the other
        // side's goes up to 13, so the join abandons the other side part way.
        val left = rows(300, if (leftEndsFirst) 8 else 14, seed = memRows + joinLen, payloadArity)
        val right = rows(300, if (leftEndsFirst) 14 else 8, seed = memRows + joinLen + 1, payloadArity)

        /** The join over two fresh sorts, each read through `wrap`. */
        def run(wrap: Iterator[CodedRow] => Iterator[CodedRow]) = {
          val stats = new OvcStats
          val spill = new SpillStats
          def sorted(in: Array[ERow]) =
            ExternalSort.sort(in.iterator, 2, payloadArity, memRows, stats, spill, dedup, fanIn)
          val l = sorted(left)
          val r = sorted(right)
          val joined = MergeJoinOp(wrap(l), 2, wrap(r), 2, joinLen, jt, stats, payloadArity)
          // Each row's contents as it was handed out, next to the row itself.
          val out = joined.map(row => (row, contents(row))).toVector
          l.close(); r.close()
          (out, stats, spill)
        }
        val (viaCursor, cursorStats, cursorSpill) = run(identity)
        val (viaRows, rowStats, rowSpill) = run(plain)
        withClue(clue) {
          assert(viaCursor.map(_._2) == viaRows.map(_._2))
          // Row contract: every output row still reads as it was handed out
          // after both sorts were drained and closed.
          viaCursor.foreach { case (row, was) => assert(contents(row) == was) }
          OvcInvariants.verifyChain(viaCursor.map(_._1), 2)
          val counts = (s: OvcStats) => (s.codeComparisons, s.columnComparisons, s.rowComparisons)
          assert(counts(cursorStats) == counts(rowStats))
          assert(cursorSpill.toString == rowSpill.toString)
          if (memRows < 300) assert(cursorSpill.rowsSpilled > 0)
          // In-sort dedup keeps each key's first row in input order.
          def input(in: Array[ERow]) = if (dedup) in.toIndexedSeq.distinctBy(_.key.toVector) else in.toIndexedSeq
          val expected = Ref.joinRef(input(left), input(right), joinLen, jt, 2, payloadArity)
          assert(viaCursor.map(c => (c._2._1, c._2._3)) == expected)
        }
      }
    }
  }

  // ---- Lookup join (§4.8) ----

  test("lookup join matches merge join and skips lookups for duplicate outer keys") {
    val outer = DataGen.randomRows(2000, 2, 3, seed = 40, payloadArity = 1) // 9 distinct keys
    val innerRows = DataGen.randomRows(50, 2, 3, seed = 41, payloadArity = 1)
    val byKey = innerRows.groupBy(_.key.toVector)
    val stats = new OvcStats
    val lookupStats = new LookupJoinOp.LookupStats
    val junk = new OvcStats
    def lookup(k: Array[Long]): IndexedSeq[(Array[Long], Array[Long])] =
      byKey.getOrElse(k.toVector, Array.empty[ERow])
        .sortWith((a, b) => Ovc.compareKeys(a.key, b.key, junk) < 0)
        .map(r => (Array.emptyLongArray, r.payload)).toIndexedSeq
    val out = LookupJoinOp(Ref.sortCoded(outer).iterator, 2, 2, lookup,
                           JoinType.Inner, stats, lookupStats).toVector
    val expected = Ref.joinRef(outer.toIndexedSeq, innerRows.toIndexedSeq, 2,
                               JoinType.Inner, 2, 1)
    assert(out.map(r => (r.key.toVector, r.payload.toVector)) == expected)
    OvcInvariants.verifyChain(out, 2)
    // 2000 outer rows but at most 9 distinct keys: OVCs collapse the probes.
    assert(lookupStats.calls <= 9, s"lookup calls=${lookupStats.calls}")
  }

  for (jt <- joinTypes) {
    test(s"lookup join $jt agrees with the reference") {
      val outer = DataGen.randomRows(400, 2, 4, seed = 42, payloadArity = 1)
      val innerRows = DataGen.randomRows(60, 2, 4, seed = 43, payloadArity = 1)
      val byKey = innerRows.groupBy(_.key.toVector)
      val junk = new OvcStats
      def lookup(k: Array[Long]): IndexedSeq[(Array[Long], Array[Long])] =
        byKey.getOrElse(k.toVector, Array.empty[ERow])
          .sortWith((a, b) => Ovc.compareKeys(a.key, b.key, junk) < 0)
          .map(r => (Array.emptyLongArray, r.payload)).toIndexedSeq
      val stats = new OvcStats
      val out = LookupJoinOp(Ref.sortCoded(outer).iterator, 2, 2, lookup, jt, stats,
                             nullSentinelArity = 1).toVector
      val expected = Ref.joinRef(outer.toIndexedSeq, innerRows.toIndexedSeq, 2, jt, 2, 1)
      assert(out.map(r => (r.key.toVector, r.payload.toVector)) == expected)
      OvcInvariants.verifyChain(out, 2)
    }
  }
}
