package repro.benchlib

import repro.core.{DataGen, ERow}

/** Figure 3's inputs for the sort-based and hash-based "intersect distinct"
  * plans ([[repro.plans.IntersectPlans]]).
  */
object Fig3Harness {

  /** Inputs mirror the paper's setup at 1/100 scale with the same 10:1
    * input:memory ratio: two tables of `n` rows whose 4-column keys encode
    * ids drawn uniformly from overlapping ranges (~2x duplication per side,
    * ~50% overlap between sides).
    */
  def makeInput(n: Int, idLo: Long, idHi: Long, arity: Int, base: Long,
                seed: Long): Array[ERow] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n) {
      val id = idLo + (rnd.nextDouble() * (idHi - idLo)).toLong
      ERow(DataGen.compositeKey(id, arity, base))
    }
  }
}
