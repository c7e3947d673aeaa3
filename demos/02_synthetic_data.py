"""Generating an interaction dataset, poking at its structure, and
round-tripping it through the on-disk format."""

import os
import tempfile

from gram.dataset import (
    GenConfig,
    boost_ratio,
    Batch,
    compute_stats,
    generate_synthetic,
    load_dataset,
    save_dataset,
)


def main():
    cfg = GenConfig(n_users=120, n_items=30, n_topics=5, vocab_size=100)
    dataset, latents = generate_synthetic(cfg, seed=42)

    st = compute_stats(dataset)
    print(f"{st.n_users} users, {st.n_items} items, {st.n_interactions} interactions")
    print(f"mean tokens per item {st.avg_l_t:.1f}, mean sequence length {st.avg_l_i:.1f}")
    print(f"epoch boost ratio R = {st.epoch_boost_ratio:.2f} "
          "(interactions per item: the cached scheme's per-epoch encoder saving)")

    u = dataset.users[0]
    print(f"\nuser {u.user_id}: {len(u)} interactions, first five items "
          f"{u.items[:5].tolist()} with responses {u.resps[:5].tolist()}")
    item = dataset.items[u.items[0]]
    print(f"item {item.item_id} tokens: {item.tokens}")
    print(f"user skill (hidden from models): {latents.user_ability[u.user_id]:+.1f}")

    # popularity is Zipf-shaped, so batches repeat items; that repetition
    # is the entire speed story
    batch = Batch(users=dataset.users[:16])
    print(f"\na 16-user batch: {batch.n_interactions()} occurrences of "
          f"{len(batch.unique_items)} unique items "
          f"(batch boost ratio {float(boost_ratio(batch)):.2f})")

    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(dataset, tmp)
        back = load_dataset(tmp)
        same = (back.items == dataset.items and back.users == dataset.users)
        print(f"\nsaved to {', '.join(sorted(os.listdir(tmp)))}; "
              f"round-trip identical: {same}")


if __name__ == "__main__":
    main()
