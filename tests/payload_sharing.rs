//! One copy of every payload: an encrypted answer vector is allocated
//! when the worker encrypts it, and the reveal message, the canonical
//! chain's worker record and every network replica's worker record all
//! point at that allocation.

mod support;

use dragoon_chain::{Chain, PendingTx};
use dragoon_contract::{HitRegistry, RegistryMessage, SettlementMode};
use dragoon_core::task::Answer;
use dragoon_core::workload::GroundTruth;
use dragoon_crypto::elgamal::PlaintextRange;
use dragoon_ledger::Address;
use dragoon_net::{NetConfig, NetSim};
use dragoon_protocol::{Worker, WorkerBehavior};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use support::Fixture;

/// The canonical chain plus a zero-delay 4-node network fed the way the
/// market engine feeds it: every submission gossiped, every produced
/// block broadcast.
struct Market {
    chain: Chain<HitRegistry>,
    net: NetSim<HitRegistry>,
}

impl Market {
    fn submit(&mut self, sender: Address, msg: RegistryMessage) {
        let seq = self.chain.submit(sender, msg.clone());
        self.net.gossip_tx(PendingTx { sender, msg, seq });
    }

    fn round(&mut self) {
        self.chain.advance_round_fifo();
        self.net
            .broadcast_block(self.chain.last_block_txs().to_vec());
    }
}

#[test]
fn one_answer_vector_from_the_worker_session_to_every_replica() {
    let fx = Fixture::new(0x5a4e);
    let mut rng = StdRng::seed_from_u64(0x5a4e ^ 1);
    let genesis = || fx.chain(SettlementMode::PerProof, None, 1);
    let mut chain = genesis();
    chain.set_record_block_txs(true);
    let zero_delay = NetConfig {
        delay: (0, 0),
        ..NetConfig::default()
    };
    let mut market = Market {
        chain,
        net: NetSim::new(zero_delay, 7, genesis),
    };
    market.submit(fx.requester, fx.create_msg());
    market.round();

    let answer = Answer(vec![1, 0, 0, 0, 1, 0]);
    let mut sessions: Vec<Worker> = (1..=3)
        .map(|w| Worker::new(Address::from_byte(w), WorkerBehavior::Fixed(answer.clone())))
        .collect();
    for session in &mut sessions {
        let artifacts = Worker::prepare_commit(
            &session.behavior,
            &GroundTruth(answer.0.clone()),
            PlaintextRange::binary(),
            &fx.kp.ek,
            None,
            None,
            &mut rng,
        )
        .expect("a fixed answer commits");
        let msg = session.install_commit(artifacts);
        market.submit(session.addr, RegistryMessage::Hit { id: 0, msg });
    }
    market.round();
    for session in &sessions {
        let msg = session.reveal_msg(&mut rng).expect("honest workers reveal");
        market.submit(session.addr, RegistryMessage::Hit { id: 0, msg });
    }
    market.round();
    assert!(market.net.drain(), "zero-delay replicas converge");

    for session in &sessions {
        let held = &session.ciphertexts().expect("committed").0;
        let canonical = market.chain.contract().hit(0).expect("created");
        let on_chain = &canonical.revealed(&session.addr).expect("revealed").0;
        assert!(Arc::ptr_eq(held, on_chain), "canonical record shares");
        for node in 0..market.net.nodes() {
            let replica = market
                .net
                .node_chain(node)
                .contract()
                .hit(0)
                .expect("created");
            let replicated = &replica.revealed(&session.addr).expect("revealed").0;
            assert!(Arc::ptr_eq(held, replicated), "node {node} shares");
        }
    }
}
