//! §2's explicit-checkpointing comparator.
//!
//! "One strategy is to explicitly checkpoint, i.e., to copy the data
//! space of the primary to that of the backup, whenever the former
//! changes. Though the backup is inactive …, the frequent copying of the
//! primary's data space slows down the primary and uses up a large
//! portion of the added computing power."
//!
//! Under [`FtStrategy::Checkpoint`](crate::config::FtStrategy) the
//! kernel copies the process's entire data space to a neighbour cluster
//! *before every send* (the discipline that keeps the checkpoint
//! consistent with the messages others have seen). The copy blocks the
//! primary — unlike the message system's sync, which only enqueues —
//! and the full image crosses the bus. Experiment E3 measures the
//! difference.

use auros_bus::proto::{Control, KernelState, PageBlob, Payload, ProcessImage, SyncRecord};
use auros_bus::{ClusterId, DeliveryTag, Pid};
use auros_sim::{Loc, TraceKind};
use auros_vm::{PageNo, Snapshot, PAGE_SIZE};

use crate::config::cost;
use crate::world::World;

/// A full data-space image: the checkpoint payload.
#[derive(Clone, Debug)]
pub struct CheckpointImage {
    /// CPU state.
    pub snapshot: Snapshot,
    /// Every valid page, with contents.
    pub pages: Vec<(PageNo, PageBlob)>,
}

impl ProcessImage for CheckpointImage {
    fn clone_box(&self) -> Box<dyn ProcessImage> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn wire_size(&self) -> usize {
        self.snapshot.wire_size() + self.pages.len() * (8 + PAGE_SIZE)
    }
}

impl World {
    /// Copies the process's whole data space to the neighbour cluster.
    ///
    /// The copy cost is charged to the primary as blocking kernel-service
    /// time (drained at the next `post_quantum`), and the image rides
    /// the bus at full size.
    pub(crate) fn perform_checkpoint(&mut self, cid: ClusterId, pid: Pid) {
        let ci = cid.0 as usize;
        let n = self.cfg.clusters;
        let neighbour = ClusterId((cid.0 + 1) % n);
        let (image, kstate, ckpt_no) = {
            let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) else {
                return;
            };
            if pcb.is_dead() {
                return;
            }
            pcb.sync_seq += 1;
            let ckpt_no = pcb.sync_seq;
            let Some(m) = pcb.machine_mut() else { return };
            let pages: Vec<(PageNo, PageBlob)> = m
                .memory()
                .valid_pages()
                .iter()
                .filter_map(|p| {
                    m.memory().page(*p).map(|d| (*p, std::sync::Arc::new(*d) as PageBlob))
                })
                .collect();
            let image = CheckpointImage { snapshot: m.snapshot(), pages };
            (image, KernelState::default(), ckpt_no)
        };
        let bytes = image.wire_size();
        // The primary is blocked for the duration of the copy (§2).
        let copy = cost::copy(bytes);
        self.stats.clusters[ci].work_busy += copy;
        if let Some(pcb) = self.clusters[ci].procs.get_mut(&pid) {
            pcb.checkpoint_debt += copy;
        }
        self.stats.clusters[ci].checkpoints += 1;
        let now = self.now();
        self.trace.emit(
            now,
            Loc::Cluster(cid.0),
            TraceKind::Checkpoint { pid: pid.0, bytes: bytes as u64, number: ckpt_no },
        );
        let record = SyncRecord {
            pid,
            sync_seq: ckpt_no,
            image: std::sync::Arc::new(image),
            kstate: std::sync::Arc::new(kstate),
            reads_since_sync: Vec::new(),
            residual_suppress: Vec::new(),
            closed: Vec::new(),
            rebuild: None,
        };
        self.send_control(
            cid,
            vec![(neighbour, DeliveryTag::Kernel)],
            Payload::Control(Control::Sync(std::sync::Arc::new(record))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_wire_size_counts_pages() {
        let snap = Snapshot {
            regs: [0; 16],
            pc: 0,
            sig_stack: vec![],
            valid_pages: Default::default(),
            fuel_used: 0,
        };
        let empty = CheckpointImage { snapshot: snap.clone(), pages: vec![] };
        let full = CheckpointImage {
            snapshot: snap,
            pages: (0..10)
                .map(|i| (PageNo(i), std::sync::Arc::new([0u8; PAGE_SIZE]) as PageBlob))
                .collect(),
        };
        assert!(full.wire_size() >= empty.wire_size() + 10 * PAGE_SIZE);
    }
}
