//! Differentiable collectives: tape ops whose forward runs a collective
//! over a [`Communicator`] and whose backward runs its mirror (paper §4.2:
//! a distributed layer's backward is its forward with every all-to-all
//! reversed). With them on the tape, one [`Tape::backward`] call
//! differentiates a whole distributed block.
//!
//! Every rank must enter the same collectives in the same order, backward
//! as forward, or a peer blocks in its receive forever. So whether a
//! collective node takes part in the backward never depends on one rank's
//! data: it propagates whenever it requires a gradient, with zeros where
//! none arrived, and a rank whose parts are empty still sends them, with
//! zero rows. Gradient rows are copied into place, never added onto a
//! zero pad, so a `-0.0` crosses unchanged.

use std::ops::Range;
use std::rc::Rc;

use dgnn_tensor::{workspace, Dense};

use super::{Op, Tape, Var};

/// The collectives the tape's distributed ops run on: one rank's endpoint
/// of a group of ranks that issue the same collectives in the same order.
pub trait Communicator {
    /// This rank's id.
    fn rank(&self) -> usize;
    /// Number of ranks.
    fn world(&self) -> usize;
    /// All-to-all: `parts[q]` goes to rank `q`; returns the parts received,
    /// indexed by source rank (the own part passes through).
    fn all_to_all_dense(&mut self, parts: Vec<Dense>) -> Vec<Dense>;
    /// Element-wise sum over all ranks, in rank order, left on every rank.
    fn all_reduce_sum(&mut self, data: &mut [f32]);
}

/// The row bookkeeping of [`Tape::all_to_all`]. Blocks stack in the order
/// listed; each is `(index, rows)`.
#[derive(Debug)]
pub struct RowRoute {
    /// `send[q]`: the row blocks of the inputs (by input index) stacked
    /// into the part sent to rank `q`.
    pub send: Vec<Vec<(usize, Range<usize>)>>,
    /// `gather[o]`: the row blocks of the parts received (by source rank)
    /// stacked into output `o`.
    pub gather: Vec<Vec<(usize, Range<usize>)>>,
}

/// Copies the `blocks` of `mat(index)` one under another into a new
/// `width`-column matrix.
fn stack_blocks<'a>(
    blocks: &[(usize, Range<usize>)],
    mat: impl Fn(usize) -> &'a Dense,
    width: usize,
) -> Dense {
    let rows = blocks.iter().map(|(_, r)| r.len()).sum();
    let mut out = Dense::scratch(rows, width);
    let mut at = 0;
    for (k, r) in blocks {
        copy_rows(&mut out, at..at + r.len(), mat(*k), r.start);
        at += r.len();
    }
    out
}

/// The inverse of [`stack_blocks`]: copies consecutive rows of `src` into
/// the `blocks` of `dst[index]`.
fn scatter_blocks(blocks: &[(usize, Range<usize>)], src: &Dense, dst: &mut [Dense]) {
    let mut at = 0;
    for (k, r) in blocks {
        copy_rows(&mut dst[*k], r.clone(), src, at);
        at += r.len();
    }
}

/// Copies `src`'s rows from `from` on into `dst`'s rows `to`.
fn copy_rows(dst: &mut Dense, to: Range<usize>, src: &Dense, from: usize) {
    let w = src.cols();
    assert_eq!(dst.cols(), w, "row block width mismatch");
    dst.data_mut()[to.start * w..to.end * w]
        .copy_from_slice(&src.data()[from * w..(from + to.len()) * w]);
}

fn zeros_like(d: &Dense) -> Dense {
    Dense::zeros(d.rows(), d.cols())
}

impl Tape {
    /// All-to-all of row blocks: the part sent to rank `q` stacks the
    /// input blocks `route.send[q]`, and output `o` stacks the blocks
    /// `route.gather[o]` of the parts received (time partitioning's two
    /// redistributions). Every matrix is `width` columns wide.
    ///
    /// The backward sends each output's gradient rows back the way they
    /// came and copies them into place in the inputs' gradients. The node
    /// always takes a gradient: a rank whose inputs are empty cannot see
    /// whether its peers' do, and must enter the mirror collective anyway.
    pub fn all_to_all(
        &mut self,
        comm: &mut dyn Communicator,
        inputs: &[Var],
        width: usize,
        route: Rc<RowRoute>,
    ) -> Vec<Var> {
        assert_eq!(
            route.send.len(),
            comm.world(),
            "all_to_all: one part per rank"
        );
        let parts = route
            .send
            .iter()
            .map(|blocks| stack_blocks(blocks, |k| self.value(inputs[k]), width))
            .collect();
        let recv = comm.all_to_all_dense(parts);
        let outs: Vec<Dense> = route
            .gather
            .iter()
            .map(|blocks| stack_blocks(blocks, |q| &recv[q], width))
            .collect();
        let recv_rows = recv.iter().map(Dense::rows).collect();
        recv.into_iter().for_each(workspace::recycle);
        let op = Op::AllToAll {
            inputs: inputs.to_vec(),
            route,
            width,
            recv_rows,
        };
        self.push(op, Dense::from_vec(0, 0, Vec::new()), true);
        outs.into_iter()
            .map(|v| self.push(Op::Output, v, true))
            .collect()
    }

    /// The row split's neighbour exchange: sends rank `q` the rows
    /// `send_rows[q]` of `x` and stacks the rows received with `x`'s own,
    /// in rank order.
    ///
    /// The backward splits the gradient by those sections, sends each peer
    /// its rows back, and sums them into zeros: the own rows first at this
    /// rank's slot, each peer's rows scatter-added in rank order. With a
    /// constant `x` (a first layer's features) it is a constant and issues
    /// no reverse collective.
    pub fn exchange_rows(
        &mut self,
        comm: &mut dyn Communicator,
        x: Var,
        send_rows: Rc<Vec<Vec<u32>>>,
    ) -> Var {
        let rank = comm.rank();
        let own = self.value(x);
        let sends = send_rows.iter().map(|rows| own.gather_rows(rows)).collect();
        let parts = comm.all_to_all_dense(sends);
        let sections: Vec<&Dense> = (0..parts.len())
            .map(|q| if q == rank { own } else { &parts[q] })
            .collect();
        let value = Dense::vstack(&sections);
        let recv_rows = sections.iter().map(|d| d.rows()).collect();
        parts.into_iter().for_each(workspace::recycle);
        let rg = self.rg(x);
        let op = Op::ExchangeRows {
            x,
            send_rows,
            recv_rows,
        };
        self.push(op, value, rg)
    }

    /// All-gather: every rank's `x` stacked in rank order (the row split's
    /// loss embeddings). The backward sums the gradient over all ranks and
    /// keeps this rank's rows.
    pub fn all_gather(&mut self, comm: &mut dyn Communicator, x: Var) -> Var {
        let rank = comm.rank();
        let own = self.value(x);
        let sends = (0..comm.world())
            .map(|q| {
                if q == rank {
                    Dense::from_vec(0, own.cols(), Vec::new())
                } else {
                    own.clone()
                }
            })
            .collect();
        let parts = comm.all_to_all_dense(sends);
        let sections: Vec<&Dense> = (0..parts.len())
            .map(|q| if q == rank { own } else { &parts[q] })
            .collect();
        let value = Dense::vstack(&sections);
        let offset = sections[..rank].iter().map(|d| d.rows()).sum();
        parts.into_iter().for_each(workspace::recycle);
        let rg = self.rg(x);
        self.push(Op::AllGather { x, offset }, value, rg)
    }

    /// Backward of the collective at node `i`, which runs whether or not a
    /// gradient reached it.
    pub(super) fn propagate_collective(&mut self, i: usize, comm: &mut dyn Communicator) {
        match &self.nodes[i].op {
            Op::AllToAll {
                inputs,
                route,
                width,
                recv_rows,
            } => {
                let (inputs, route) = (inputs.clone(), Rc::clone(route));
                let mut back: Vec<Dense> =
                    recv_rows.iter().map(|&r| Dense::zeros(r, *width)).collect();
                for (o, blocks) in route.gather.iter().enumerate() {
                    if let Some(g) = self.grads[i + 1 + o].take() {
                        scatter_blocks(blocks, &g, &mut back);
                        workspace::recycle(g);
                    }
                }
                let recv = comm.all_to_all_dense(back);
                let mut dx: Vec<Dense> =
                    inputs.iter().map(|&v| zeros_like(self.value(v))).collect();
                for (blocks, part) in route.send.iter().zip(&recv) {
                    scatter_blocks(blocks, part, &mut dx);
                }
                recv.into_iter().for_each(workspace::recycle);
                for (v, d) in inputs.into_iter().zip(dx) {
                    self.accumulate(v, d);
                }
            }
            Op::ExchangeRows {
                x,
                send_rows,
                recv_rows,
            } => {
                let (x, send_rows, rank) = (*x, Rc::clone(send_rows), comm.rank());
                let g = self.grads[i]
                    .take()
                    .unwrap_or_else(|| zeros_like(&self.nodes[i].value));
                let mut at = 0;
                let mut sections: Vec<Dense> = recv_rows
                    .iter()
                    .map(|&len| {
                        at += len;
                        g.row_block(at - len, len)
                    })
                    .collect();
                let own = std::mem::replace(&mut sections[rank], Dense::zeros(0, g.cols()));
                workspace::recycle(g);
                let recv = comm.all_to_all_dense(sections);
                let mut dx = zeros_like(&own);
                for (q, d) in recv.iter().enumerate() {
                    if q == rank {
                        dx.add_assign(&own);
                    } else {
                        dx.scatter_add_rows(&send_rows[q], d);
                    }
                }
                recv.into_iter().chain([own]).for_each(workspace::recycle);
                self.accumulate(x, dx);
            }
            Op::AllGather { x, offset } => {
                let (x, offset) = (*x, *offset);
                let mut g = self.grads[i]
                    .take()
                    .unwrap_or_else(|| zeros_like(&self.nodes[i].value));
                comm.all_reduce_sum(g.data_mut());
                let dx = g.row_block(offset, self.value(x).rows());
                workspace::recycle(g);
                self.accumulate(x, dx);
            }
            _ => unreachable!("not a collective"),
        }
    }
}
