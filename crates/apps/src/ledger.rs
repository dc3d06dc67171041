//! Compound-interest ledger rollup as a linear-recurrence scan.
//!
//! A ledger that accrues interest each period and then books a deposit
//! follows `balance_i = factor·balance_{i-1} + deposit_i` — a first-order
//! linear recurrence, serial on its face, parallel as a [`LinRec`] scan
//! over the companion-matrix carry semigroup
//! ([`sam_core::carry::CarrySemigroup`]). One scan yields the balance
//! after *every* period, not just the last, which is what statement
//! generation and audit replays actually need.
//!
//! Multiple accounts interleave as tuple lanes
//! ([`ScanSpec::with_tuple`], Section 2.3 of the paper): account `a`'s
//! period-`p` deposit sits at index `p·accounts + a`, and one tuple-based
//! scan rolls every account forward independently — no mixing between
//! lanes, one pass over the whole book.
//!
//! # Exactness envelope
//!
//! Balances are wrapping `u64`: results equal the mathematical rollup
//! while balances stay below `2^64` (at `factor = 2` that allows 64
//! doubling periods from a unit deposit; realistic factors reach the
//! envelope far later). Beyond it the scan and the serial loop wrap
//! identically — determinism is unconditional. Fractional interest `p/q`
//! with odd `q` can be run exactly in the residue ring via the modular
//! inverse, as in [`crate::ema::ema_fixed_point`].

use sam_core::cpu::CpuScanner;
use sam_core::op::LinRec;
use sam_core::{ScanKind, ScanSpec};

/// Rolls one account forward: `balance_i = factor·balance_{i-1} +
/// deposits[i]` (wrapping), returning the closing balance of every period.
pub fn roll_forward(deposits: &[u64], factor: u64, scanner: &CpuScanner) -> Vec<u64> {
    roll_forward_accounts(deposits, 1, factor, scanner)
}

/// Rolls `accounts` interleaved accounts forward in one tuple-based scan
/// (`deposits[p·accounts + a]` is account `a`'s deposit in period `p`);
/// returns closing balances in the same interleaved layout.
///
/// # Panics
///
/// Panics if `accounts` is zero or exceeds [`ScanSpec::MAX_TUPLE`].
pub fn roll_forward_accounts(
    deposits: &[u64],
    accounts: usize,
    factor: u64,
    scanner: &CpuScanner,
) -> Vec<u64> {
    let op = LinRec::first_order(factor).expect("u64 is an exact wrapping ring");
    let spec = ScanSpec::inclusive()
        .with_tuple(accounts)
        .expect("account count within tuple bounds");
    scanner.scan(deposits, &op, &spec)
}

/// Opening balances: each period's balance *after* interest accrual but
/// *before* its deposit (`factor·balance_{i-1}`) — the exclusive form of
/// the same recurrence, same interleaved layout as
/// [`roll_forward_accounts`].
///
/// # Panics
///
/// Panics if `accounts` is zero or exceeds [`ScanSpec::MAX_TUPLE`].
pub fn opening_balances(
    deposits: &[u64],
    accounts: usize,
    factor: u64,
    scanner: &CpuScanner,
) -> Vec<u64> {
    let op = LinRec::first_order(factor).expect("u64 is an exact wrapping ring");
    let spec =
        ScanSpec::new(ScanKind::Exclusive, 1, accounts).expect("account count within tuple bounds");
    scanner.scan(deposits, &op, &spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanner() -> CpuScanner {
        CpuScanner::new(3).with_chunk_elems(64)
    }

    /// Period-by-period serial rollup (the oracle).
    fn serial_rollup(deposits: &[u64], accounts: usize, factor: u64) -> Vec<u64> {
        let mut balances = vec![0u64; accounts];
        deposits
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let a = i % accounts;
                balances[a] = factor.wrapping_mul(balances[a]).wrapping_add(d);
                balances[a]
            })
            .collect()
    }

    #[test]
    fn single_account_matches_serial_rollup() {
        let deposits: Vec<u64> = (0..4000).map(|i| (i * 53 % 997) + 1).collect();
        for factor in [0u64, 1, 2, 7] {
            let got = roll_forward(&deposits, factor, &scanner());
            assert_eq!(got, serial_rollup(&deposits, 1, factor), "factor={factor}");
        }
    }

    #[test]
    fn interleaved_accounts_stay_independent() {
        let accounts = 5;
        let deposits: Vec<u64> = (0..4000).map(|i| (i * 37 % 211) + 1).collect();
        let got = roll_forward_accounts(&deposits, accounts, 3, &scanner());
        assert_eq!(got, serial_rollup(&deposits, accounts, 3));
        // Lane a of the interleaved scan equals that account scanned alone.
        for a in 0..accounts {
            let own: Vec<u64> = deposits.iter().skip(a).step_by(accounts).copied().collect();
            let alone = roll_forward(&own, 3, &scanner());
            let lane: Vec<u64> = got.iter().skip(a).step_by(accounts).copied().collect();
            assert_eq!(lane, alone, "account {a}");
        }
    }

    #[test]
    fn opening_is_closing_minus_deposit() {
        let accounts = 3;
        let deposits: Vec<u64> = (0..900).map(|i| (i * 71 % 503) + 2).collect();
        let closing = roll_forward_accounts(&deposits, accounts, 4, &scanner());
        let opening = opening_balances(&deposits, accounts, 4, &scanner());
        for i in 0..deposits.len() {
            assert_eq!(
                opening[i],
                closing[i].wrapping_sub(deposits[i]),
                "period {i}"
            );
        }
    }

    #[test]
    fn factor_one_is_the_running_total() {
        let deposits = [5u64, 10, 1, 4];
        assert_eq!(roll_forward(&deposits, 1, &scanner()), vec![5, 15, 16, 20]);
    }

    #[test]
    fn wrapping_past_the_envelope_is_deterministic() {
        // 70 unit deposits at factor 2 overflow u64; the scan must wrap
        // exactly like the serial loop, not diverge.
        let deposits = vec![1u64; 70];
        let got = roll_forward(&deposits, 2, &scanner());
        assert_eq!(got, serial_rollup(&deposits, 1, 2));
    }
}
