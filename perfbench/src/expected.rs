//! Output fingerprints recorded at full episode size.
//!
//! Each entry is the FNV-1a fingerprint a workload's episode must produce
//! for a seed: the encoded end-of-episode trainer snapshot for training
//! workloads, and the inference output and tenant parameter fingerprints
//! for the serve workload. A run on a seed listed here fails when any
//! episode differs; on other seeds, episodes must only agree with each
//! other across thread budgets. Regenerate with `--fingerprint` after a
//! change that is meant to alter simulated results.

/// `(workload, seed, fingerprint)` for seeds 0 to 15.
const RECORDED: &[(&str, u64, u64)] = &[
    ("mlp_original", 0, 0x9051d474b1968528),
    ("mlp_original", 1, 0xb0f0874ef4e5aab4),
    ("mlp_original", 2, 0xa847c0a581573848),
    ("mlp_original", 3, 0xbdf21e109ec5d2da),
    ("mlp_original", 4, 0x4922015debe24b01),
    ("mlp_original", 5, 0x99fd61d4f9a84aac),
    ("mlp_original", 6, 0xecc0f86d0f54156b),
    ("mlp_original", 7, 0xbd7b0c0bcf94eabc),
    ("mlp_original", 8, 0xb0907763fe246cbd),
    ("mlp_original", 9, 0x31d9649b8f20d234),
    ("mlp_original", 10, 0xaf8c86c8d5da1ace),
    ("mlp_original", 11, 0x59cc0b327186bb38),
    ("mlp_original", 12, 0x910721e170aee562),
    ("mlp_original", 13, 0xa6dc21743a0502d9),
    ("mlp_original", 14, 0x6a969beb8e3fa20f),
    ("mlp_original", 15, 0x0f68969082ec31ce),
    ("mlp_ftt", 0, 0xc3033e3c0200347c),
    ("mlp_ftt", 1, 0x5109efa698f16979),
    ("mlp_ftt", 2, 0x7c6ed25612a0347c),
    ("mlp_ftt", 3, 0xb45dfe0bb33de66e),
    ("mlp_ftt", 4, 0x86ad85f7010a53d5),
    ("mlp_ftt", 5, 0x90b5dc83fc4fd03d),
    ("mlp_ftt", 6, 0xb02689c2279246d4),
    ("mlp_ftt", 7, 0xda6bcc29df156712),
    ("mlp_ftt", 8, 0x328622668d516986),
    ("mlp_ftt", 9, 0x3f51f06a1f6971d5),
    ("mlp_ftt", 10, 0x11d062ae8d279962),
    ("mlp_ftt", 11, 0x63cfe163747854ba),
    ("mlp_ftt", 12, 0x8f579e92859495d3),
    ("mlp_ftt", 13, 0x32e773f4ee3b0cc9),
    ("mlp_ftt", 14, 0xd57cfdc37a939552),
    ("mlp_ftt", 15, 0x6183afa3ba97aae9),
    ("cnn_ftt", 0, 0x22e50f09b099db2d),
    ("cnn_ftt", 1, 0x8ea739118dc6c29f),
    ("cnn_ftt", 2, 0x20a2177e72943730),
    ("cnn_ftt", 3, 0x066003345006812a),
    ("cnn_ftt", 4, 0x83697bf0db564405),
    ("cnn_ftt", 5, 0xfb8c38aee783eef1),
    ("cnn_ftt", 6, 0x6572b79cd080216e),
    ("cnn_ftt", 7, 0xef73f3719142766c),
    ("cnn_ftt", 8, 0xcb8c682d7b5c67e9),
    ("cnn_ftt", 9, 0x7b1fc2c6a932205e),
    ("cnn_ftt", 10, 0x3a07625633d4a19f),
    ("cnn_ftt", 11, 0x27d2cce08492d49c),
    ("cnn_ftt", 12, 0x895725d4f06ffd17),
    ("cnn_ftt", 13, 0x01fced15bc1841a8),
    ("cnn_ftt", 14, 0xdea6bc687e476266),
    ("cnn_ftt", 15, 0xbf27bf00b2c2eaa0),
    ("serve_mixed", 0, 0x362d779dce04c78b),
    ("serve_mixed", 1, 0xbbeaf44bf88037fc),
    ("serve_mixed", 2, 0x8919eef2c3e32c05),
    ("serve_mixed", 3, 0x2dd8594b4b7e678e),
    ("serve_mixed", 4, 0xe7e3440b0815b41b),
    ("serve_mixed", 5, 0x51b36ab7c0b28cf7),
    ("serve_mixed", 6, 0xd9e45b4633008c92),
    ("serve_mixed", 7, 0x6c86eae10a393bb9),
    ("serve_mixed", 8, 0xd10d583c7402ac05),
    ("serve_mixed", 9, 0x750e83d508311a17),
    ("serve_mixed", 10, 0x890475b4e54493a9),
    ("serve_mixed", 11, 0xeb9edc0731e79634),
    ("serve_mixed", 12, 0x36b5e7036f19edc1),
    ("serve_mixed", 13, 0xf466d24b36490403),
    ("serve_mixed", 14, 0xcccb7ddae431578a),
    ("serve_mixed", 15, 0xbe7b39774eb241f8),
];

/// The recorded fingerprint of `workload` at `seed`, if any.
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, fp)| fp)
}
