"""Demo: receptive-field arithmetic and its empirical certificate.

Shows the (rf, stride) computed for every shipped config and for the
full-scale variants, then probes one model empirically: perturbing any
pixel outside a location's declared window must leave its evidence
untouched, and a model that under-declares its patch size must get
caught.

    python demos/02_receptive_fields.py
"""

from bagnet.model import (
    SHIPPED_CONFIGS,
    build_model,
    certify_receptive_field,
    paper_scale,
    rf_geometry,
    with_declared_q,
)


def main():
    print("== shipped desk configurations ==")
    for name, fn in SHIPPED_CONFIGS.items():
        cfg = fn()
        rf, stride, _ = rf_geometry(cfg)
        print(f"  {name:12s} q={cfg.q:<3d} computed rf={rf:<3d} heatmap stride={stride}")

    print("== full-scale variants ==")
    for q in (9, 17, 33):
        cfg = paper_scale(q)
        rf, stride, _ = rf_geometry(cfg)
        print(f"  {cfg.name:15s} rf={rf:<3d} stride={stride} feature_dim={cfg.feature_dim}")

    print("== empirical certificate (bagnet9_32, random weights) ==")
    model = build_model(SHIPPED_CONFIGS["bagnet9_32"](), seed=0)
    cert = certify_receptive_field(model, location=(3, 3), trials=3, seed=0)
    print(f"  honest declaration: {cert}")

    fake = with_declared_q(model, 8)
    cert = certify_receptive_field(fake, location=(3, 3), trials=1, seed=0)
    print(f"  claims q=8 instead of 9: {cert}")


if __name__ == "__main__":
    main()
