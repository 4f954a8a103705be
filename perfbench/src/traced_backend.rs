//! A [`CrossbarBackend`] that times every call into the banked crossbar
//! it wraps. Installed with `ServeConfig::with_engine_factory`, it
//! builds the very substrate the service would build by default, so
//! the hardware model sees the same operations; only host time is
//! added.

use crate::trace::{now_ns, tracer, CrossbarOp};
use memcim_bits::BitVec;
use memcim_crossbar::{
    BankedCrossbar, CrossbarBackend, CrossbarError, OpLedger, RemapEntry, ScoutingKind,
};
use memcim_serve::{BoxedBackend, ServeConfig};

pub struct TracedBackend {
    inner: BankedCrossbar,
}

impl TracedBackend {
    /// Runs `f` on the wrapped crossbar, as a span while the tracer
    /// records.
    fn timed<T>(
        &mut self,
        op: CrossbarOp,
        cells: u64,
        f: impl FnOnce(&mut BankedCrossbar) -> T,
    ) -> T {
        if !tracer().recording() {
            return f(&mut self.inner);
        }
        let start = now_ns();
        let out = f(&mut self.inner);
        tracer().crossbar(op, start, now_ns(), cells);
        out
    }
}

/// `config` with every worker engine wrapped in a [`TracedBackend`].
/// The wrapped substrate is what `ServeConfig` builds without a factory
/// when ECC and spare rows are off, which is how every workload runs.
pub fn traced(config: ServeConfig) -> ServeConfig {
    assert!(
        !config.mvp_ecc && config.mvp_spare_rows == 0,
        "the traced substrate mirrors the plain banked engine only"
    );
    let (rows, banks, bank_cols) = (config.mvp_rows, config.mvp_banks, config.mvp_bank_cols);
    config.with_engine_factory(move |_worker| -> BoxedBackend {
        Box::new(TracedBackend { inner: BankedCrossbar::rram(rows, banks, bank_cols) })
    })
}

impl CrossbarBackend for TracedBackend {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        let cells = self.inner.cols() as u64;
        self.timed(CrossbarOp::ProgramRow, cells, |x| x.program_row(row, values))
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        let cells = self.inner.cols() as u64;
        self.timed(CrossbarOp::ReadRow, cells, |x| x.read_row(row))
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        let cells = (rows.len() * self.inner.cols()) as u64;
        self.timed(CrossbarOp::Scouting, cells, |x| x.scouting(kind, rows))
    }

    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        // Sensed rows plus the destination row written back.
        let cells = ((rows.len() + 1) * self.inner.cols()) as u64;
        self.timed(CrossbarOp::ScoutingWrite, cells, |x| x.scouting_write(kind, rows, dest))
    }

    fn ledger_totals(&self) -> OpLedger {
        self.inner.ledger_totals()
    }

    fn ledger_parts(&self) -> Vec<OpLedger> {
        self.inner.ledger_parts()
    }

    fn remap_table(&self) -> Vec<RemapEntry> {
        self.inner.remap_table()
    }
}
