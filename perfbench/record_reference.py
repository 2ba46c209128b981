"""Write reference.json: every workload's outputs on the reference seed.

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit the reference should
describe; the check in run.py compares against these outputs to REL_TOL.
"""

import json

import run


def main():
    run.import_program()
    import workloads

    doc = {"seed": run.REFERENCE_SEED, "environment": run.environment(),
           "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        doc["workloads"][name] = workload.run(workload.setup(run.REFERENCE_SEED))
        print(name, "done", flush=True)
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
