//! The gated graph neural network encoder (paper Sec. 4.3).
//!
//! Message passing follows Eq. 6 with the GGNN instantiation: one learned
//! matrix per edge label and direction (`mᵗ = E_k h`), max-pooling
//! aggregation (the paper found max better than sum and likens it to a
//! meet-like lattice operator), and a single GRU cell as the update
//! function, unrolled `T = 8` steps. Initial node states average learned
//! subtoken embeddings (Eq. 7); token- and character-level variants back
//! the Table 4 ablation.

use crate::input::{NodeInit, PreparedFile, CHAR_VOCAB, NUM_RELATIONS};
use serde::{Deserialize, Serialize};
use typilus_nn::{Embedding, GruCell, Linear, ParamSet, Tape, Tensor, Var};

/// Message aggregation operator (paper: max; sum as ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Aggregation {
    /// Elementwise maximum over incoming messages (paper default).
    Max,
    /// Sum of incoming messages (classic GGNN).
    Sum,
}

/// The GGNN encoder producing type embeddings for symbol nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GnnEncoder {
    subtoken_embedding: Embedding,
    token_embedding: Embedding,
    char_embedding: Embedding,
    messages: Vec<Linear>,
    gru: GruCell,
    /// Number of message-passing steps `T`.
    pub steps: usize,
    /// Hidden width `D`.
    pub dim: usize,
    /// Initial node state construction.
    pub node_init: NodeInit,
    /// Aggregation operator.
    pub aggregation: Aggregation,
}

impl GnnEncoder {
    /// Creates a GGNN encoder.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: rand::Rng>(
        params: &mut ParamSet,
        subtoken_vocab: usize,
        token_vocab: usize,
        dim: usize,
        steps: usize,
        node_init: NodeInit,
        aggregation: Aggregation,
        rng: &mut R,
    ) -> GnnEncoder {
        let subtoken_embedding = Embedding::new(params, "gnn.subtok", subtoken_vocab, dim, rng);
        let token_embedding = Embedding::new(params, "gnn.tok", token_vocab, dim, rng);
        let char_embedding = Embedding::new(params, "gnn.char", CHAR_VOCAB, dim, rng);
        let messages = (0..NUM_RELATIONS)
            .map(|k| Linear::new_no_bias(params, &format!("gnn.msg{k}"), dim, dim, rng))
            .collect();
        let gru = GruCell::new(params, "gnn.gru", dim, dim, rng);
        GnnEncoder {
            subtoken_embedding,
            token_embedding,
            char_embedding,
            messages,
            gru,
            steps,
            dim,
            node_init,
            aggregation,
        }
    }

    /// Initial node states `h⁰` for all nodes of a file.
    fn initial_states(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Var {
        match self.node_init {
            NodeInit::Subtoken => {
                let mut ids = Vec::new();
                let mut groups = Vec::new();
                for (n, subs) in file.node_subtokens.iter().enumerate() {
                    for &s in subs {
                        ids.push(s);
                        groups.push(n);
                    }
                }
                self.subtoken_embedding
                    .lookup_mean(tape, &ids, &groups, file.num_nodes)
            }
            NodeInit::Token => self.token_embedding.lookup(tape, &file.node_token_id),
            NodeInit::Char => {
                let mut ids = Vec::new();
                let mut groups = Vec::new();
                for (n, chars) in file.node_chars.iter().enumerate() {
                    for &c in chars {
                        ids.push(c);
                        groups.push(n);
                    }
                }
                self.char_embedding
                    .lookup_mean(tape, &ids, &groups, file.num_nodes)
            }
        }
    }

    /// Runs `T` steps of message passing and returns the final states of
    /// all nodes, `[num_nodes, D]`.
    pub fn node_states(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Var {
        let mark = tape.len();
        let mut h = self.initial_states(tape, file);
        // Precompute flattened edge endpoints per relation.
        let rels: Vec<(usize, Vec<usize>, Vec<usize>)> = file
            .relations
            .iter()
            .enumerate()
            .filter(|(_, edges)| !edges.is_empty())
            .map(|(k, edges)| {
                let srcs: Vec<usize> = edges.iter().map(|&(s, _)| s as usize).collect();
                let dsts: Vec<usize> = edges.iter().map(|&(_, d)| d as usize).collect();
                (k, srcs, dsts)
            })
            .collect();
        for _ in 0..self.steps {
            let agg = if rels.is_empty() {
                tape.input(Tensor::zeros(file.num_nodes, self.dim))
            } else {
                let mut message_rows = Vec::new();
                let mut message_dsts = Vec::new();
                for (k, srcs, dsts) in &rels {
                    let src_states = tape.gather(h, srcs);
                    let msg = self.messages[*k].apply(tape, src_states);
                    message_rows.push(msg);
                    message_dsts.extend(dsts.iter().copied());
                }
                let all_messages = tape.concat_rows(&message_rows);
                match self.aggregation {
                    Aggregation::Max => {
                        tape.segment_max(all_messages, &message_dsts, file.num_nodes)
                    }
                    Aggregation::Sum => {
                        tape.segment_sum(all_messages, &message_dsts, file.num_nodes)
                    }
                }
            };
            h = self.gru.step(tape, agg, h);
            // Step boundary: a forward-only tape frees this step's
            // intermediates and the previous state; a recording tape
            // keeps them for backward.
            h = tape.retain(mark, h);
        }
        h
    }

    /// Type embeddings of the file's prediction targets, `[targets, D]`.
    ///
    /// # Panics
    ///
    /// Panics if the file has no targets (check before calling).
    pub fn encode(&self, tape: &mut Tape<'_>, file: &PreparedFile) -> Var {
        assert!(
            !file.targets.is_empty(),
            "encode requires at least one target"
        );
        let h = self.node_states(tape, file);
        let idx: Vec<usize> = file.targets.iter().map(|t| t.node as usize).collect();
        tape.gather(h, &idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{count_labels, prepare, PrepareConfig};
    use crate::vocab::Vocab;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use typilus_graph::{build_graph, GraphConfig};
    use typilus_pyast::{parse, SymbolTable};

    fn file_and_vocabs(src: &str) -> (PreparedFile, Vocab, Vocab) {
        let parsed = parse(src).unwrap();
        let table = SymbolTable::build(&parsed.module);
        let graph = build_graph(&parsed, &table, &GraphConfig::default(), "t.py");
        let (sub, tok) = count_labels(std::slice::from_ref(&graph));
        let sv = Vocab::build(&sub, 1, 1000);
        let tv = Vocab::build(&tok, 1, 1000);
        let file = prepare(&graph, &sv, &tv, &PrepareConfig::default());
        (file, sv, tv)
    }

    fn encoder(sv: &Vocab, tv: &Vocab, params: &mut ParamSet, init: NodeInit) -> GnnEncoder {
        let mut rng = StdRng::seed_from_u64(42);
        GnnEncoder::new(
            params,
            sv.len(),
            tv.len(),
            16,
            4,
            init,
            Aggregation::Max,
            &mut rng,
        )
    }

    #[test]
    fn encode_shapes() {
        let (file, sv, tv) = file_and_vocabs("def f(a, b):\n    c = a + b\n    return c\n");
        let mut params = ParamSet::new();
        let enc = encoder(&sv, &tv, &mut params, NodeInit::Subtoken);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        assert_eq!(tape.value(emb).shape(), (file.targets.len(), 16));
    }

    #[test]
    fn all_node_inits_work() {
        let (file, sv, tv) = file_and_vocabs("x = some_value\n");
        for init in [NodeInit::Subtoken, NodeInit::Token, NodeInit::Char] {
            let mut params = ParamSet::new();
            let enc = encoder(&sv, &tv, &mut params, init);
            let mut tape = Tape::new(&params);
            let emb = enc.encode(&mut tape, &file);
            assert_eq!(tape.value(emb).rows(), file.targets.len(), "{init:?}");
        }
    }

    #[test]
    fn gradients_reach_embeddings_and_messages() {
        let (file, sv, tv) = file_and_vocabs("def f(n):\n    return n + 1\n");
        let mut params = ParamSet::new();
        let enc = encoder(&sv, &tv, &mut params, NodeInit::Subtoken);
        let mut tape = Tape::new(&params);
        let emb = enc.encode(&mut tape, &file);
        let t = tape.tanh(emb);
        let loss = tape.mean_all(t);
        let grads = tape.backward(loss);
        let touched = params
            .iter()
            .filter(|(id, _, _)| grads.get(*id).is_some())
            .count();
        // Subtoken table + at least several message matrices + GRU weights.
        assert!(touched > 8, "only {touched} params received gradients");
    }

    #[test]
    fn sum_aggregation_differs_from_max() {
        let (file, sv, tv) = file_and_vocabs("a = b + c\n");
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(42);
        let enc_max = GnnEncoder::new(
            &mut params,
            sv.len(),
            tv.len(),
            16,
            4,
            NodeInit::Subtoken,
            Aggregation::Max,
            &mut rng,
        );
        let mut enc_sum = enc_max.clone();
        enc_sum.aggregation = Aggregation::Sum;
        let mut tape = Tape::new(&params);
        let e1 = enc_max.encode(&mut tape, &file);
        let e2 = enc_sum.encode(&mut tape, &file);
        assert_ne!(tape.value(e1), tape.value(e2));
    }

    #[test]
    fn deterministic_encoding() {
        let (file, sv, tv) = file_and_vocabs("total = count * price\n");
        let mut params = ParamSet::new();
        let enc = encoder(&sv, &tv, &mut params, NodeInit::Subtoken);
        let v1 = {
            let mut tape = Tape::new(&params);
            let e = enc.encode(&mut tape, &file);
            tape.value(e).clone()
        };
        let v2 = {
            let mut tape = Tape::new(&params);
            let e = enc.encode(&mut tape, &file);
            tape.value(e).clone()
        };
        assert_eq!(v1, v2);
    }
}
